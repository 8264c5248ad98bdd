// Tests for the vehicular substrate: road networks, traffic, links, CTE,
// route selection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "vanet/cte.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/route_sim.h"
#include "vanet/traffic_sim.h"

namespace sh::vanet {
namespace {

// ---------------------------------------------------------------------------
// Geometry helpers

TEST(GeometryTest, DistanceAndHeading) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_NEAR(heading_of({0, 0}, {0, 10}), 0.0, 1e-9);    // north
  EXPECT_NEAR(heading_of({0, 0}, {10, 0}), 90.0, 1e-9);   // east
  EXPECT_NEAR(heading_of({0, 0}, {0, -10}), 180.0, 1e-9); // south
  EXPECT_NEAR(heading_of({0, 0}, {-10, 0}), 270.0, 1e-9); // west
  EXPECT_NEAR(heading_of({0, 0}, {10, 10}), 45.0, 1e-9);
}

// ---------------------------------------------------------------------------
// RoadNetwork

TEST(RoadNetworkTest, GridHasExpectedStructure) {
  const auto net = RoadNetwork::grid(4, 3, 100.0);
  EXPECT_EQ(net.num_intersections(), 12);
  // Corner has 2 neighbors, edge 3, interior 4.
  EXPECT_EQ(net.neighbors(0).size(), 2U);
  EXPECT_EQ(net.neighbors(1).size(), 3U);
  EXPECT_EQ(net.neighbors(5).size(), 4U);
}

TEST(RoadNetworkTest, GridPositionsOnLattice) {
  const auto net = RoadNetwork::grid(3, 3, 50.0);
  EXPECT_DOUBLE_EQ(net.position(0).x, 0.0);
  EXPECT_DOUBLE_EQ(net.position(4).x, 50.0);
  EXPECT_DOUBLE_EQ(net.position(4).y, 50.0);
  EXPECT_DOUBLE_EQ(net.position(8).x, 100.0);
}

TEST(RoadNetworkTest, ShortestPathStraightLine) {
  const auto net = RoadNetwork::grid(5, 1 + 1, 100.0);  // 5x2 grid
  const auto path = net.shortest_path(0, 4);
  ASSERT_EQ(path.size(), 5U);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 4);
}

TEST(RoadNetworkTest, ShortestPathManhattanLength) {
  const auto net = RoadNetwork::grid(5, 5, 100.0);
  const auto path = net.shortest_path(0, 24);  // corner to corner
  EXPECT_EQ(path.size(), 9U);                  // 8 hops + 1
}

TEST(RoadNetworkTest, ShortestPathSameNodeEmpty) {
  const auto net = RoadNetwork::grid(3, 3, 100.0);
  EXPECT_TRUE(net.shortest_path(4, 4).empty());
}

TEST(RoadNetworkTest, IrregularGridPerturbsPositions) {
  const auto regular = RoadNetwork::grid(4, 4, 100.0);
  const auto irregular = RoadNetwork::irregular_grid(4, 4, 100.0, 0.25, 9);
  ASSERT_EQ(regular.num_intersections(), irregular.num_intersections());
  bool moved = false;
  for (int i = 0; i < regular.num_intersections(); ++i) {
    if (distance(regular.position(i), irregular.position(i)) > 1.0)
      moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(RoadNetworkTest, ChordsCityIsConnectedEnough) {
  const auto net = RoadNetwork::chords_city(16, 3000.0, 7);
  EXPECT_GT(net.num_intersections(), 30);
  // Most pairs should be reachable along roads.
  int reachable = 0;
  const int probes = 20;
  for (int i = 0; i < probes; ++i) {
    const auto path = net.shortest_path(0, (i * 7 + 3) % net.num_intersections());
    if (!path.empty() || (i * 7 + 3) % net.num_intersections() == 0) ++reachable;
  }
  EXPECT_GT(reachable, probes / 2);
}

TEST(RoadNetworkTest, ChordsCityDeterministicPerSeed) {
  const auto a = RoadNetwork::chords_city(12, 2000.0, 5);
  const auto b = RoadNetwork::chords_city(12, 2000.0, 5);
  ASSERT_EQ(a.num_intersections(), b.num_intersections());
  for (int i = 0; i < a.num_intersections(); ++i) {
    EXPECT_DOUBLE_EQ(a.position(i).x, b.position(i).x);
  }
}

/// chords_city's crossing merge as it stood before PointMerger: a linear
/// scan for the lowest-index node within 1 m, else a new node.
int scan_find_or_add(std::vector<Vec2>& points, const Vec2& pos) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (distance(points[i], pos) < 1.0) return static_cast<int>(i);
  }
  points.push_back(pos);
  return static_cast<int>(points.size() - 1);
}

TEST(PointMergerTest, MatchesLinearScanOnCrowdedCrossings) {
  util::Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    // Crossings crowd around a few centres, so most lie within 1 m of
    // several others and of the 1 m cell borders; coordinates run negative
    // too. Some land on whole metres, and some 1 m (to rounding) from a stored
    // point (not merged: the predicate is strict).
    const double area = rng.uniform(2.0, 40.0);
    std::vector<Vec2> centres(8);
    for (auto& c : centres) {
      c = Vec2{rng.uniform(-area, area), rng.uniform(-area, area)};
    }
    std::vector<Vec2> scanned;
    std::vector<Vec2> merged;
    PointMerger merger(merged);
    for (int i = 0; i < 600; ++i) {
      const Vec2& c = centres[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(centres.size()) - 1))];
      Vec2 pos{c.x + rng.uniform(-1.5, 1.5), c.y + rng.uniform(-1.5, 1.5)};
      const double u = rng.uniform();
      if (u < 0.1) {
        pos = Vec2{std::round(pos.x), std::round(pos.y)};
      } else if (u < 0.2 && !scanned.empty()) {
        const Vec2& p = scanned[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(scanned.size()) - 1))];
        pos = rng.bernoulli(0.5) ? Vec2{p.x + 1.0, p.y} : Vec2{p.x, p.y - 1.0};
      }
      const int want = scan_find_or_add(scanned, pos);
      ASSERT_EQ(merger.find_or_add(pos), want)
          << "round " << round << ", crossing " << i << " at (" << pos.x
          << ", " << pos.y << ")";
    }
    ASSERT_EQ(merged.size(), scanned.size());
    EXPECT_GT(scanned.size(), 20U);
    EXPECT_LT(scanned.size(), 600U);  // Merges happened.
  }
}

/// FNV-1a over every node's degree and neighbor ids, in neighbor order.
std::uint64_t neighbor_order_hash(const RoadNetwork& net) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint32_t>(net.num_intersections()));
  for (int i = 0; i < net.num_intersections(); ++i) {
    const auto adj = net.neighbors(i);
    mix(static_cast<std::uint32_t>(adj.size()));
    for (const auto n : adj) mix(static_cast<std::uint32_t>(n));
  }
  return h;
}

/// TrafficSim's road following indexes candidates and breaks heading ties
/// in neighbor order, and shortest_path's BFS expands in it, so every
/// builder's per-node order is part of the output. Pinned directly here;
/// the trajectory and link pins only see a reorder indirectly.
TEST(RoadNetworkTest, NeighborOrderPinnedForEveryBuilder) {
  EXPECT_EQ(neighbor_order_hash(RoadNetwork::city_for_scale(100, 5180)),
            8586129488395056924ULL);
  EXPECT_EQ(neighbor_order_hash(RoadNetwork::city_for_scale(1000, 5181)),
            7134634455384847232ULL);
  EXPECT_EQ(neighbor_order_hash(RoadNetwork::city_for_scale(10000, 5182)),
            13517450095552872959ULL);
  EXPECT_EQ(neighbor_order_hash(RoadNetwork::chords_city(16, 3000.0, 7)),
            1683670936900780279ULL);
  EXPECT_EQ(
      neighbor_order_hash(RoadNetwork::chords_city(40, 5000.0, 11, 0.5, 4.0)),
      647782977469065340ULL);
  EXPECT_EQ(neighbor_order_hash(RoadNetwork::grid(5, 4, 100.0)),
            15198328152761392892ULL);
  EXPECT_EQ(neighbor_order_hash(
                RoadNetwork::irregular_grid(6, 5, 120.0, 0.25, 9)),
            1934320805178633528ULL);
  // Heavy thinning: many stranded nodes, so the reconnect entries that
  // follow the lattice neighbors are pinned too.
  EXPECT_EQ(neighbor_order_hash(
                RoadNetwork::city_grid(4, 3, 4, 120.0, 99, 0.9, 0.2)),
            11084462266775931971ULL);
  EXPECT_EQ(
      neighbor_order_hash(RoadNetwork::city_grid(3, 3, 6, 100.0, 98, 0.6)),
      1217441539823939295ULL);
}

// Builder contracts hold in every build type, NDEBUG included: unchecked,
// city_grid(2, 2, 0, ...) divides by zero and city_grid(0, 0, ...) writes
// before its first node.
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RoadNetworkContractTest, GridRejectsBadShapeOrSpacing) {
  for (const auto& [cols, rows] :
       {std::pair{0, 3}, std::pair{1, 3}, std::pair{3, 1}, std::pair{-2, 3}}) {
    EXPECT_THROW(RoadNetwork::grid(cols, rows, 100.0), std::invalid_argument)
        << cols << "x" << rows;
  }
  for (const double spacing : {0.0, -100.0, kNan, kInf}) {
    EXPECT_THROW(RoadNetwork::grid(3, 3, spacing), std::invalid_argument)
        << spacing;
  }
  // 2^32 nodes: rejected before anything is allocated.
  EXPECT_THROW(RoadNetwork::grid(1 << 16, 1 << 16, 100.0),
               std::invalid_argument);
  EXPECT_EQ(RoadNetwork::grid(2, 2, 100.0).num_intersections(), 4);
}

TEST(RoadNetworkContractTest, IrregularGridRejectsBadJitter) {
  for (const double jitter : {-0.1, 0.5, kNan}) {
    EXPECT_THROW(RoadNetwork::irregular_grid(4, 4, 100.0, jitter, 1),
                 std::invalid_argument)
        << jitter;
  }
  EXPECT_THROW(RoadNetwork::irregular_grid(0, 4, 100.0, 0.2, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(RoadNetwork::irregular_grid(4, 4, 100.0, 0.0, 1));
}

TEST(RoadNetworkContractTest, ChordsCityRejectsBadArguments) {
  EXPECT_THROW(RoadNetwork::chords_city(1, 2000.0, 1), std::invalid_argument);
  EXPECT_THROW(RoadNetwork::chords_city(0, 2000.0, 1), std::invalid_argument);
  for (const double size : {0.0, -2000.0, kNan, kInf}) {
    EXPECT_THROW(RoadNetwork::chords_city(12, size, 1), std::invalid_argument)
        << size;
  }
  for (const double frac : {-0.1, 1.1, kNan}) {
    EXPECT_THROW(RoadNetwork::chords_city(12, 2000.0, 1, frac),
                 std::invalid_argument)
        << frac;
  }
  for (const double spread : {-1.0, kNan, kInf}) {
    EXPECT_THROW(RoadNetwork::chords_city(12, 2000.0, 1, 0.7, spread),
                 std::invalid_argument)
        << spread;
  }
  EXPECT_NO_THROW(RoadNetwork::chords_city(12, 2000.0, 1, 0.0, 0.0));
  EXPECT_NO_THROW(RoadNetwork::chords_city(12, 2000.0, 1, 1.0));
}

TEST(RoadNetworkContractTest, CityGridRejectsBadArguments) {
  for (const auto& [cols, rows, blocks] :
       {std::tuple{2, 2, 0}, std::tuple{2, 2, 1}, std::tuple{0, 0, 5},
        std::tuple{0, 2, 5}, std::tuple{2, -1, 5}}) {
    EXPECT_THROW(RoadNetwork::city_grid(cols, rows, blocks, 150.0, 1),
                 std::invalid_argument)
        << cols << "x" << rows << " districts of " << blocks;
  }
  for (const double block : {0.0, -150.0, kNan, kInf}) {
    EXPECT_THROW(RoadNetwork::city_grid(2, 2, 5, block, 1),
                 std::invalid_argument)
        << block;
  }
  for (const double drop : {-0.1, 1.0, kNan}) {
    EXPECT_THROW(RoadNetwork::city_grid(2, 2, 5, 150.0, 1, drop),
                 std::invalid_argument)
        << drop;
  }
  for (const double jitter : {-0.1, 0.5, kNan}) {
    EXPECT_THROW(RoadNetwork::city_grid(2, 2, 5, 150.0, 1, 0.15, jitter),
                 std::invalid_argument)
        << jitter;
  }
  // Shapes whose node count overflows: rejected before anything is built.
  EXPECT_THROW(RoadNetwork::city_grid(100000, 100000, 5, 150.0, 1),
               std::invalid_argument);
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_THROW(RoadNetwork::city_grid(kMax, kMax, kMax, 150.0, 1),
               std::invalid_argument);
  EXPECT_EQ(RoadNetwork::city_grid(1, 1, 2, 150.0, 1).num_intersections(), 9);
}

TEST(RoadNetworkContractTest, CityForScaleRejectsBadVehicleCount) {
  EXPECT_THROW(RoadNetwork::city_for_scale(0, 1), std::invalid_argument);
  EXPECT_THROW(RoadNetwork::city_for_scale(-5, 1), std::invalid_argument);
  // A fleet this large needs ~8.6e9 intersections.
  EXPECT_THROW(RoadNetwork::city_for_scale(std::numeric_limits<int>::max(), 1),
               std::invalid_argument);
  EXPECT_GT(RoadNetwork::city_for_scale(1, 1).num_intersections(), 0);
}

TEST(RoadNetworkContractTest, ShortestPathRejectsOutOfRangeIds) {
  const auto net = RoadNetwork::grid(3, 3, 100.0);
  for (const auto& [from, to] :
       {std::pair{-5, 4}, std::pair{4, -1}, std::pair{9, 0}, std::pair{0, 9},
        std::pair{-5, -5}, std::pair{9, 9}}) {
    EXPECT_THROW(net.shortest_path(from, to), std::out_of_range)
        << from << "->" << to;
  }
  EXPECT_EQ(net.shortest_path(0, 8).size(), 5U);
}

TEST(RoadNetworkContractTest, NeighborsAndPositionRejectOutOfRangeIds) {
  const auto net = RoadNetwork::grid(3, 3, 100.0);
  for (const int id : {-1, 9, std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max()}) {
    EXPECT_THROW(net.neighbors(id), std::out_of_range) << id;
    EXPECT_THROW(net.position(id), std::out_of_range) << id;
  }
  const RoadNetwork empty;
  EXPECT_THROW(empty.neighbors(0), std::out_of_range);
  EXPECT_THROW(empty.position(0), std::out_of_range);
  EXPECT_EQ(net.neighbors(8).size(), 2U);
}

// ---------------------------------------------------------------------------
// TrafficSim

TEST(TrafficSimTest, VehiclesStayNearRoads) {
  const auto net = RoadNetwork::grid(6, 6, 300.0);
  TrafficSim sim(net, 17);
  const auto log = sim.run(120 * kSecond);
  // Every position within the (slightly padded) bounding box of the grid.
  for (std::size_t step = 0; step < log.num_steps(); step += 10) {
    for (int v = 0; v < log.num_vehicles(); ++v) {
      const auto& s = log.at(step, v);
      EXPECT_GE(s.position.x, -10.0);
      EXPECT_LE(s.position.x, 5 * 300.0 + 10.0);
      EXPECT_GE(s.position.y, -10.0);
      EXPECT_LE(s.position.y, 5 * 300.0 + 10.0);
    }
  }
}

TEST(TrafficSimTest, VehiclesActuallyMove) {
  const auto net = RoadNetwork::grid(6, 6, 300.0);
  TrafficSim sim(net, 19);
  const auto log = sim.run(60 * kSecond);
  int moved = 0;
  for (int v = 0; v < log.num_vehicles(); ++v) {
    if (distance(log.at(0, v).position,
                 log.at(log.num_steps() - 1, v).position) > 50.0) {
      ++moved;
    }
  }
  EXPECT_GT(moved, log.num_vehicles() / 2);
}

TEST(TrafficSimTest, SpeedsWithinConfiguredBand) {
  const auto net = RoadNetwork::grid(6, 6, 300.0);
  TrafficSim::Params params;
  params.num_vehicles = 20;
  TrafficSim sim(net, 21, params);
  const auto log = sim.run(60 * kSecond);
  for (std::size_t step = 1; step < log.num_steps(); step += 5) {
    for (int v = 0; v < 20; ++v) {
      const auto& s = log.at(step, v);
      EXPECT_GE(s.speed_mps, 0.0);
      EXPECT_LE(s.speed_mps, params.max_speed_mps * 1.5);
    }
  }
}

TEST(TrafficSimTest, StepDistanceConsistentWithSpeed) {
  const auto net = RoadNetwork::grid(8, 8, 400.0);
  TrafficSim sim(net, 23);
  const auto log = sim.run(30 * kSecond);
  for (std::size_t step = 1; step < log.num_steps(); ++step) {
    for (int v = 0; v < log.num_vehicles(); v += 10) {
      const double moved = distance(log.at(step - 1, v).position,
                                    log.at(step, v).position);
      EXPECT_LE(moved, 25.0);  // cannot teleport
    }
  }
}

TEST(TrafficSimTest, FollowRoadModeRunsOnChordsCity) {
  const auto net = RoadNetwork::chords_city(14, 2500.0, 25);
  TrafficSim::Params params;
  params.routing = TrafficSim::Routing::kFollowRoad;
  params.num_vehicles = 30;
  TrafficSim sim(net, 27, params);
  const auto log = sim.run(120 * kSecond);
  int moved = 0;
  for (int v = 0; v < 30; ++v) {
    if (distance(log.at(0, v).position,
                 log.at(log.num_steps() - 1, v).position) > 100.0) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 15);
}

TEST(TrajectoryLogTest, StepAccounting) {
  const auto net = RoadNetwork::grid(3, 3, 100.0);
  TrafficSim::Params params;
  params.num_vehicles = 5;
  TrafficSim sim(net, 29, params);
  const auto log = sim.run(10 * kSecond);
  EXPECT_EQ(log.num_steps(), 11U);  // initial snapshot + 10 steps
  EXPECT_EQ(log.num_vehicles(), 5);
  EXPECT_EQ(log.step(), kSecond);
}

TEST(TrafficSimTest, RejectsInvalidParamsInEveryBuildType) {
  const auto net = RoadNetwork::grid(3, 3, 100.0);
  const auto params_with = [](auto edit) {
    TrafficSim::Params params;
    edit(params);
    return params;
  };
  for (const int n : {0, -1}) {
    EXPECT_THROW(TrafficSim(net, 1, params_with([n](auto& p) {
                   p.num_vehicles = n;
                 })),
                 std::invalid_argument);
  }
  EXPECT_THROW(TrafficSim(RoadNetwork{}, 1), std::invalid_argument);
  EXPECT_THROW(TrafficSim(net, 1, params_with([](auto& p) {
                 p.min_speed_mps = 15.0;
                 p.max_speed_mps = 14.0;
               })),
               std::invalid_argument);
  for (const double nan : {std::nan(""), -std::nan("")}) {
    EXPECT_THROW(TrafficSim(net, 1, params_with([nan](auto& p) {
                   p.min_speed_mps = nan;
                 })),
                 std::invalid_argument);
    EXPECT_THROW(TrafficSim(net, 1, params_with([nan](auto& p) {
                   p.max_speed_mps = nan;
                 })),
                 std::invalid_argument);
  }
  // A fixed speed (min == max) is valid.
  EXPECT_NO_THROW(TrafficSim(net, 1, params_with([](auto& p) {
    p.min_speed_mps = 12.0;
    p.max_speed_mps = 12.0;
  })));
}

TEST(TrajectoryLogTest, RejectsInvalidShapeInEveryBuildType) {
  EXPECT_THROW(TrajectoryLog(0, kSecond), std::invalid_argument);
  EXPECT_THROW(TrajectoryLog(-3, kSecond), std::invalid_argument);
  EXPECT_THROW(TrajectoryLog(2, 0), std::invalid_argument);
  EXPECT_THROW(TrajectoryLog(2, -kSecond), std::invalid_argument);

  TrajectoryLog log(2, kSecond);
  EXPECT_THROW(log.append({}), std::invalid_argument);
  EXPECT_THROW(log.append(std::vector<VehicleState>(3)), std::invalid_argument);
  EXPECT_EQ(log.num_steps(), 0U);
  log.append(std::vector<VehicleState>(2));
  EXPECT_EQ(log.num_steps(), 1U);
}

// ---------------------------------------------------------------------------
// Link extraction

TEST(LinkTrackerTest, TwoStationaryVehiclesOneLink) {
  TrajectoryLog log(2, kSecond);
  for (int step = 0; step < 10; ++step) {
    log.append({VehicleState{{0, 0}, 0.0, 0.0},
                VehicleState{{50, 0}, 10.0, 0.0}});
  }
  const auto links = extract_links(log, 100.0);
  ASSERT_EQ(links.size(), 1U);
  EXPECT_EQ(links[0].vehicle_a, 0);
  EXPECT_EQ(links[0].vehicle_b, 1);
  EXPECT_NEAR(links[0].duration_s(), 9.0, 1e-9);
  EXPECT_NEAR(links[0].heading_diff_start_deg, 10.0, 1e-9);
}

TEST(LinkTrackerTest, OutOfRangeNoLink) {
  TrajectoryLog log(2, kSecond);
  for (int step = 0; step < 5; ++step) {
    log.append({VehicleState{{0, 0}, 0.0, 0.0},
                VehicleState{{500, 0}, 0.0, 0.0}});
  }
  EXPECT_TRUE(extract_links(log, 100.0).empty());
}

TEST(LinkTrackerTest, LinkBreakAndReformCountsTwice) {
  TrajectoryLog log(2, kSecond);
  auto near = [] {
    return std::vector<VehicleState>{VehicleState{{0, 0}, 0.0, 0.0},
                                     VehicleState{{50, 0}, 0.0, 0.0}};
  };
  auto far = [] {
    return std::vector<VehicleState>{VehicleState{{0, 0}, 0.0, 0.0},
                                     VehicleState{{500, 0}, 0.0, 0.0}};
  };
  for (int i = 0; i < 3; ++i) log.append(near());
  for (int i = 0; i < 2; ++i) log.append(far());
  for (int i = 0; i < 3; ++i) log.append(near());
  const auto links = extract_links(log, 100.0);
  EXPECT_EQ(links.size(), 2U);
}

TEST(LinkTrackerTest, HeadingNoiseChangesBucketOnlySlightly) {
  TrajectoryLog log(2, kSecond);
  for (int step = 0; step < 5; ++step) {
    log.append({VehicleState{{0, 0}, 0.0, 0.0},
                VehicleState{{50, 0}, 0.0, 0.0}});
  }
  const auto noisy = extract_links(log, 100.0, 3.0, 5);
  ASSERT_EQ(noisy.size(), 1U);
  EXPECT_LT(noisy[0].heading_diff_start_deg, 20.0);
  EXPECT_GT(noisy[0].heading_diff_start_deg, 0.0);  // noise applied
}

// The paper's Table 5.1 headline: similar-heading links last several times
// longer than the median over all links.
TEST(LinkTrackerTest, SimilarHeadingLinksLastLonger) {
  const auto net = RoadNetwork::chords_city(16, 3000.0, 31, 0.75, 6.0);
  TrafficSim::Params params;
  params.routing = TrafficSim::Routing::kFollowRoad;
  params.turn_probability = 0.08;
  TrafficSim sim(net, 33, params);
  const auto log = sim.run(400 * kSecond);
  const auto links = extract_links(log, 100.0, 2.0, 11);
  util::Percentile aligned, all;
  for (const auto& link : links) {
    if (link.heading_diff_start_deg < 10.0) aligned.add(link.duration_s());
    all.add(link.duration_s());
  }
  ASSERT_GT(aligned.count(), 10U);
  ASSERT_GT(all.count(), 100U);
  EXPECT_GT(aligned.median(), 2.5 * all.median());
}

// Regression: events must come out in (a, b) vehicle-id order within each
// step regardless of the discovery order of the proximity scan. The scan
// walks cells in (iy, ix) order, so placing the HIGHER-id vehicles in the
// LOWER-ordered cells makes discovery order the reverse of id order.
TEST(LinkTrackerTest, EventsInVehicleIdOrderRegardlessOfDiscoveryOrder) {
  LinkTracker::Params params;
  params.record_events = true;
  LinkTracker tracker(params);
  // Three clusters at descending y (cell order is y-major ascending), ids
  // assigned so the first-scanned cluster holds the largest ids.
  std::vector<VehicleState> snap(6);
  snap[4] = VehicleState{{0.0, 0.0}, 0.0, 0.0};    // cell (0, 0)
  snap[5] = VehicleState{{10.0, 0.0}, 0.0, 0.0};
  snap[2] = VehicleState{{0.0, 500.0}, 0.0, 0.0};  // cell (0, 5)
  snap[3] = VehicleState{{10.0, 500.0}, 0.0, 0.0};
  snap[0] = VehicleState{{0.0, 900.0}, 0.0, 0.0};  // cell (0, 9)
  snap[1] = VehicleState{{10.0, 900.0}, 0.0, 0.0};
  tracker.observe(0, snap);
  ASSERT_EQ(tracker.events().size(), 3U);
  EXPECT_EQ(tracker.events()[0].vehicle_a, 0);
  EXPECT_EQ(tracker.events()[1].vehicle_a, 2);
  EXPECT_EQ(tracker.events()[2].vehicle_a, 4);
  for (const auto& e : tracker.events()) EXPECT_TRUE(e.up);

  // Break the pairs in reverse id order too; down events still sort by id.
  for (auto& s : snap) s.position.x *= 100.0;  // 10 m gaps become 1 km
  tracker.observe(kSecond, snap);
  ASSERT_EQ(tracker.events().size(), 6U);
  EXPECT_EQ(tracker.events()[3].vehicle_a, 0);
  EXPECT_EQ(tracker.events()[4].vehicle_a, 2);
  EXPECT_EQ(tracker.events()[5].vehicle_a, 4);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_FALSE(tracker.events()[i].up);
  EXPECT_EQ(tracker.finish().size(), 3U);
}

// observe()'s documented precondition holds in every build type: a stream's
// clock never runs backwards and its fleet never changes size.
std::vector<VehicleState> pair_50m_apart() {
  return {VehicleState{{0, 0}, 0.0, 0.0}, VehicleState{{50, 0}, 0.0, 0.0}};
}

TEST(LinkTrackerTest, ObserveRejectsTimeGoingBackwards) {
  LinkTracker tracker(LinkTracker::Params{});
  tracker.observe(5 * kSecond, pair_50m_apart());
  EXPECT_THROW(tracker.observe(4 * kSecond, pair_50m_apart()),
               std::invalid_argument);
  // The rejected call left no trace: a repeated time is fine, and the link
  // spans 5 s to 6 s, never back to 4 s.
  tracker.observe(5 * kSecond, pair_50m_apart());
  tracker.observe(6 * kSecond, pair_50m_apart());
  const auto links = tracker.finish();
  ASSERT_EQ(links.size(), 1U);
  EXPECT_EQ(links[0].start, 5 * kSecond);
  EXPECT_EQ(links[0].end, 6 * kSecond);
}

TEST(LinkTrackerTest, ObserveRejectsVehicleCountChange) {
  LinkTracker tracker(LinkTracker::Params{});
  tracker.observe(0, pair_50m_apart());
  auto three = pair_50m_apart();
  three.push_back(VehicleState{{25, 0}, 0.0, 0.0});
  EXPECT_THROW(tracker.observe(kSecond, three), std::invalid_argument);
  EXPECT_THROW(tracker.observe(kSecond, {}), std::invalid_argument);
  EXPECT_EQ(tracker.active_links(), 1U);
  tracker.observe(kSecond, pair_50m_apart());
  ASSERT_EQ(tracker.finish().size(), 1U);
}

TEST(LinkTrackerTest, FinishEndsTheStream) {
  // After finish() a new stream may restart the clock and resize the fleet.
  LinkTracker tracker(LinkTracker::Params{});
  tracker.observe(10 * kSecond, pair_50m_apart());
  ASSERT_EQ(tracker.finish().size(), 1U);
  auto three = pair_50m_apart();
  three.push_back(VehicleState{{25, 0}, 0.0, 0.0});
  tracker.observe(0, three);
  const auto links = tracker.finish();
  EXPECT_EQ(links.size(), 3U);
  for (const auto& link : links) EXPECT_EQ(link.start, 0);
}

// ---------------------------------------------------------------------------
// CTE

TEST(CteTest, InverseOfHeadingDifference) {
  EXPECT_DOUBLE_EQ(cte(90.0), 1.0 / 90.0);
  EXPECT_DOUBLE_EQ(cte(180.0), 1.0 / 180.0);
}

TEST(CteTest, FlooredAtOneDegree) {
  EXPECT_DOUBLE_EQ(cte(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cte(0.5), 1.0);
}

TEST(CteTest, MonotoneDecreasing) {
  for (double d = 1.0; d < 180.0; d += 1.0) {
    EXPECT_GT(cte(d - 0.5 < 0 ? 0 : d - 0.5), cte(d + 0.5 > 180 ? 180 : d + 0.5));
  }
}

TEST(CteTest, RouteCteIsBottleneck) {
  const double diffs[] = {5.0, 40.0, 10.0};
  EXPECT_DOUBLE_EQ(route_cte(diffs), cte(40.0));
}

TEST(CteTest, EmptyRouteHasZeroCte) {
  EXPECT_DOUBLE_EQ(route_cte({}), 0.0);
}

// ---------------------------------------------------------------------------
// Route building

std::vector<VehicleState> line_of_vehicles(int n, double spacing,
                                           double heading = 0.0) {
  std::vector<VehicleState> snap;
  for (int i = 0; i < n; ++i) {
    snap.push_back(VehicleState{{i * spacing, 0.0}, heading, 10.0});
  }
  return snap;
}

TEST(RouteSimTest, BfsFindsChainRoute) {
  const auto snap = line_of_vehicles(5, 70.0);
  util::Rng rng(35);
  const auto route =
      build_route(snap, 0, 4, 80.0, RouteStrategy::kHintFree, rng);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->vehicles.front(), 0);
  EXPECT_EQ(route->vehicles.back(), 4);
  EXPECT_EQ(route->vehicles.size(), 5U);
}

TEST(RouteSimTest, NoRouteWhenDisconnected) {
  auto snap = line_of_vehicles(4, 70.0);
  snap[3].position.x = 1000.0;
  util::Rng rng(37);
  EXPECT_FALSE(
      build_route(snap, 0, 3, 80.0, RouteStrategy::kHintFree, rng).has_value());
  EXPECT_FALSE(
      build_route(snap, 0, 3, 80.0, RouteStrategy::kCte, rng).has_value());
}

TEST(RouteSimTest, CteRouteAvoidsOpposingRelay) {
  // Two relay options between src and dst: one heading the same way, one
  // heading the opposite way. CTE must pick the aligned relay.
  std::vector<VehicleState> snap;
  snap.push_back(VehicleState{{0, 0}, 0.0, 10.0});      // 0: src, north
  snap.push_back(VehicleState{{70, 30}, 0.0, 10.0});    // 1: aligned relay
  snap.push_back(VehicleState{{70, -30}, 180.0, 10.0}); // 2: opposing relay
  snap.push_back(VehicleState{{140, 0}, 0.0, 10.0});    // 3: dst, north
  util::Rng rng(39);
  const auto route = build_route(snap, 0, 3, 80.0, RouteStrategy::kCte, rng);
  ASSERT_TRUE(route.has_value());
  ASSERT_EQ(route->vehicles.size(), 3U);
  EXPECT_EQ(route->vehicles[1], 1);
}

TEST(RouteSimTest, LifetimeCountsUntilFirstHopBreak) {
  TrajectoryLog log(3, kSecond);
  // Chain 0-1-2; vehicle 2 walks out of range after 3 steps.
  for (int step = 0; step < 10; ++step) {
    const double x2 = step < 4 ? 160.0 : 400.0;
    log.append({VehicleState{{0, 0}, 0.0, 0.0},
                VehicleState{{80, 0}, 0.0, 0.0},
                VehicleState{{x2, 0}, 0.0, 0.0}});
  }
  Route route;
  route.vehicles = {0, 1, 2};
  EXPECT_NEAR(route_lifetime_s(log, route, 0, 100.0), 3.0, 1e-9);
}

TEST(RouteSimTest, CompareStrategiesProducesResults) {
  const auto net = RoadNetwork::chords_city(14, 1500.0, 41, 0.75);
  TrafficSim::Params params;
  params.routing = TrafficSim::Routing::kFollowRoad;
  params.num_vehicles = 150;
  TrafficSim sim(net, 43, params);
  const auto log = sim.run(300 * kSecond);
  RouteExperimentConfig config;
  config.samples = 60;
  const auto results = compare_route_strategies(log, config);
  ASSERT_EQ(results.size(), 2U);
  EXPECT_GT(results[0].routes_evaluated, 20U);
  EXPECT_EQ(results[0].routes_evaluated, results[1].routes_evaluated);
  // The CTE strategy must not be worse on average.
  EXPECT_GE(results[1].mean_lifetime_s, results[0].mean_lifetime_s * 0.95);
}

}  // namespace
}  // namespace sh::vanet

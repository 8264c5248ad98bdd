// City-scale VANET test suite: the spatial-hash proximity index and the
// sharded deterministic vehicle update.
//
// Three tiers, per the determinism contract (DESIGN.md "City-scale VANET"):
//
//  * differential — on randomized road graphs and vehicle counts small
//    enough to brute-force, the spatial-hash link set must be EXACTLY the
//    O(n²) reference link set at every step, and extract_links must equal a
//    reference reimplementation of the original all-pairs tracker field for
//    field (doubles compared with ==, not tolerance);
//  * sharded determinism — 1/2/8-thread runs of the sharded update and the
//    sharded link scan must produce byte-identical trajectories and
//    link-event streams (positions compared bit-for-bit);
//  * golden pins at scale — link-duration histograms and CTE route choices
//    for fixed seeds at 100 and 1k vehicles, and every link record at 10k,
//    hashed, so a future refactor cannot silently shift Table 5-1. If a
//    change is INTENTIONAL, update the hashes and say so in the commit
//    message.
//
// Below the pins, the radix-built index and the flat link table are each
// held to a std::sort / std::map reference, and the index's input contracts
// are checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hints.h"
#include "exp/thread_pool.h"
#include "util/rng.h"
#include "vanet/cte.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/route_sim.h"
#include "vanet/spatial_hash.h"
#include "vanet/traffic_sim.h"

namespace sh::vanet {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// ---------------------------------------------------------------------------
// O(n²) references — deliberately independent of the production code path.

std::vector<VehiclePair> brute_pairs(const std::vector<VehicleState>& snap,
                                     double range_m) {
  std::vector<VehiclePair> pairs;
  const int n = static_cast<int>(snap.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (distance(snap[static_cast<std::size_t>(a)].position,
                   snap[static_cast<std::size_t>(b)].position) <= range_m) {
        pairs.emplace_back(a, b);
      }
    }
  }
  return pairs;
}

/// The original all-pairs extract_links, kept verbatim as the differential
/// reference (including its RNG draw order: birth noise drawn in (a, b)
/// scan order within each step).
std::vector<LinkRecord> brute_extract_links(const TrajectoryLog& log,
                                            double range_m,
                                            double heading_noise_deg,
                                            std::uint64_t noise_seed) {
  util::Rng noise_rng(noise_seed);
  std::vector<LinkRecord> completed;
  std::map<std::pair<int, int>, LinkRecord> active;
  const int n = log.num_vehicles();
  for (std::size_t step = 0; step < log.num_steps(); ++step) {
    const Time now = static_cast<Time>(step) * log.step();
    const auto& snap = log.snapshot(step);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        const bool connected =
            distance(snap[static_cast<std::size_t>(a)].position,
                     snap[static_cast<std::size_t>(b)].position) <= range_m;
        const auto key = std::make_pair(a, b);
        const auto it = active.find(key);
        if (connected) {
          if (it == active.end()) {
            LinkRecord rec;
            rec.vehicle_a = a;
            rec.vehicle_b = b;
            rec.start = now;
            rec.end = now;
            rec.heading_diff_start_deg = core::heading_difference(
                snap[static_cast<std::size_t>(a)].heading_deg +
                    noise_rng.normal(0.0, heading_noise_deg),
                snap[static_cast<std::size_t>(b)].heading_deg +
                    noise_rng.normal(0.0, heading_noise_deg));
            active.emplace(key, rec);
          } else {
            it->second.end = now;
          }
        } else if (it != active.end()) {
          completed.push_back(it->second);
          active.erase(it);
        }
      }
    }
  }
  for (auto& [key, rec] : active) completed.push_back(rec);
  return completed;
}

/// Randomized small road network: one of the four generators with seeded
/// parameters — every family the differential sweep should cover.
RoadNetwork random_network(util::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return RoadNetwork::grid(static_cast<int>(rng.uniform_int(2, 6)),
                               static_cast<int>(rng.uniform_int(2, 6)),
                               rng.uniform(60.0, 250.0));
    case 1:
      return RoadNetwork::irregular_grid(
          static_cast<int>(rng.uniform_int(3, 6)),
          static_cast<int>(rng.uniform_int(3, 6)), rng.uniform(80.0, 220.0),
          rng.uniform(0.05, 0.3), rng());
    case 2:
      return RoadNetwork::chords_city(static_cast<int>(rng.uniform_int(6, 14)),
                                      rng.uniform(600.0, 1500.0), rng());
    default:
      return RoadNetwork::city_grid(static_cast<int>(rng.uniform_int(1, 3)),
                                    static_cast<int>(rng.uniform_int(1, 3)),
                                    static_cast<int>(rng.uniform_int(2, 4)),
                                    rng.uniform(80.0, 200.0), rng());
  }
}

TrafficSim::Params random_params(util::Rng& rng, int vehicles) {
  TrafficSim::Params params;
  params.num_vehicles = vehicles;
  params.routing = rng.bernoulli(0.5) ? TrafficSim::Routing::kRandomTrips
                                      : TrafficSim::Routing::kFollowRoad;
  params.stop_probability = rng.uniform(0.0, 0.15);
  return params;
}

// ---------------------------------------------------------------------------
// Differential: spatial hash ≡ brute force, at every step.

TEST(VanetDifferentialTest, HashPairSetEqualsBruteForceOnRandomGraphs) {
  util::Rng meta(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const auto net = random_network(meta);
    const int vehicles = static_cast<int>(meta.uniform_int(2, 64));
    TrafficSim sim(net, meta(), random_params(meta, vehicles));
    const double range_m = meta.uniform(40.0, 150.0);
    SpatialHash hash(range_m);
    for (int step = 0; step < 25; ++step) {
      sim.step();
      const auto snap = sim.snapshot();
      hash.build(snap);
      EXPECT_EQ(hash.pairs_within(snap, range_m), brute_pairs(snap, range_m))
          << "trial " << trial << " step " << step << " range " << range_m;
    }
  }
}

TEST(VanetDifferentialTest, ShardedPairScanEqualsSerialScan) {
  util::Rng meta(77);
  exp::ThreadPool pool2(2);
  exp::ThreadPool pool8(8);
  for (int trial = 0; trial < 4; ++trial) {
    // Enough occupied cells to span several scan blocks is what matters
    // here; city_for_scale keeps the pair count sane at that size.
    const auto net = RoadNetwork::city_for_scale(5000, meta());
    TrafficSim sim(net, meta(), random_params(meta, 5000));
    sim.step();
    const auto snap = sim.snapshot();
    SpatialHash hash(100.0);
    hash.build(snap);
    const auto serial = hash.pairs_within(snap, 100.0);
    EXPECT_EQ(hash.pairs_within(snap, 100.0, &pool2), serial);
    EXPECT_EQ(hash.pairs_within(snap, 100.0, &pool8), serial);
  }
}

TEST(VanetDifferentialTest, ExtractLinksEqualsBruteForceReference) {
  util::Rng meta(4096);
  for (int trial = 0; trial < 8; ++trial) {
    const auto net = random_network(meta);
    const int vehicles = static_cast<int>(meta.uniform_int(2, 48));
    TrafficSim sim(net, meta(), random_params(meta, vehicles));
    const auto log = sim.run(40 * kSecond);
    const double range_m = meta.uniform(50.0, 140.0);
    const double noise = meta.bernoulli(0.5) ? 2.0 : 0.0;
    const std::uint64_t noise_seed = meta();
    const auto fast = extract_links(log, range_m, noise, noise_seed);
    const auto ref = brute_extract_links(log, range_m, noise, noise_seed);
    ASSERT_EQ(fast.size(), ref.size()) << "trial " << trial;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(fast[i].vehicle_a, ref[i].vehicle_a) << "link " << i;
      EXPECT_EQ(fast[i].vehicle_b, ref[i].vehicle_b) << "link " << i;
      EXPECT_EQ(fast[i].start, ref[i].start) << "link " << i;
      EXPECT_EQ(fast[i].end, ref[i].end) << "link " << i;
      // Bit-exact, not near: the noise RNG stream must align draw for draw.
      EXPECT_EQ(double_bits(fast[i].heading_diff_start_deg),
                double_bits(ref[i].heading_diff_start_deg))
          << "link " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded determinism: 1/2/8 threads, byte-identical output.

std::string serialized_trajectory(const TrajectoryLog& log) {
  std::ostringstream os;
  for (std::size_t step = 0; step < log.num_steps(); ++step) {
    for (int v = 0; v < log.num_vehicles(); ++v) {
      const auto& s = log.at(step, v);
      os << double_bits(s.position.x) << ' ' << double_bits(s.position.y)
         << ' ' << double_bits(s.heading_deg) << ' '
         << double_bits(s.speed_mps) << '\n';
    }
  }
  return os.str();
}

std::string serialized_events(const std::vector<LinkEvent>& events) {
  std::ostringstream os;
  for (const auto& e : events) {
    os << e.time << ' ' << (e.up ? 'U' : 'D') << ' ' << e.vehicle_a << ' '
       << e.vehicle_b << ' ' << double_bits(e.heading_diff_deg) << '\n';
  }
  return os.str();
}

TEST(VanetShardedDeterminismTest, TrajectoryByteIdenticalAcrossThreadCounts) {
  const auto net = RoadNetwork::city_grid(2, 2, 4, 150.0, 11);
  TrafficSim::Params params;
  params.num_vehicles = 5000;  // > 2 shard blocks
  params.routing = TrafficSim::Routing::kFollowRoad;

  TrafficSim serial(net, 42, params);
  const auto log1 = serial.run(30 * kSecond);

  exp::ThreadPool pool2(2);
  TrafficSim sharded2(net, 42, params);
  const auto log2 = sharded2.run(30 * kSecond, pool2);

  exp::ThreadPool pool8(8);
  TrafficSim sharded8(net, 42, params);
  const auto log8 = sharded8.run(30 * kSecond, pool8);

  const auto bytes1 = serialized_trajectory(log1);
  EXPECT_EQ(bytes1, serialized_trajectory(log2));
  EXPECT_EQ(bytes1, serialized_trajectory(log8));
}

TEST(VanetShardedDeterminismTest, LinkEventStreamByteIdenticalAcrossThreadCounts) {
  const auto net = RoadNetwork::city_grid(2, 2, 4, 150.0, 13);
  TrafficSim::Params params;
  params.num_vehicles = 5000;
  params.routing = TrafficSim::Routing::kFollowRoad;

  exp::ThreadPool pool2(2);
  exp::ThreadPool pool8(8);
  LinkTracker::Params tp;
  tp.heading_noise_deg = 2.0;
  tp.noise_seed = 9;
  tp.record_events = true;
  LinkTracker serial(tp);
  LinkTracker sharded2(tp, &pool2);
  LinkTracker sharded8(tp, &pool8);

  TrafficSim sim1(net, 43, params);
  TrafficSim sim2(net, 43, params);
  TrafficSim sim8(net, 43, params);
  for (int step = 0; step < 30; ++step) {
    const Time now = static_cast<Time>(step) * kSecond;
    sim1.step();
    sim2.step(pool2);
    sim8.step(pool8);
    serial.observe(now, sim1.snapshot());
    sharded2.observe(now, sim2.snapshot());
    sharded8.observe(now, sim8.snapshot());
  }
  const auto bytes1 = serialized_events(serial.events());
  ASSERT_FALSE(serial.events().empty());
  EXPECT_EQ(bytes1, serialized_events(sharded2.events()));
  EXPECT_EQ(bytes1, serialized_events(sharded8.events()));

  // The completed-record streams must agree too (field for field).
  const auto r1 = serial.finish();
  const auto r2 = sharded2.finish();
  const auto r8 = sharded8.finish();
  ASSERT_EQ(r1.size(), r2.size());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].vehicle_a, r2[i].vehicle_a);
    EXPECT_EQ(r1[i].start, r8[i].start);
    EXPECT_EQ(double_bits(r1[i].heading_diff_start_deg),
              double_bits(r2[i].heading_diff_start_deg));
    EXPECT_EQ(double_bits(r1[i].heading_diff_start_deg),
              double_bits(r8[i].heading_diff_start_deg));
  }
}

// ---------------------------------------------------------------------------
// Spatial-hash edge cases: the classic off-by-one-cell bugs.

std::vector<VehicleState> at_positions(const std::vector<Vec2>& positions) {
  std::vector<VehicleState> snap;
  for (const auto& p : positions) snap.push_back(VehicleState{p, 0.0, 0.0});
  return snap;
}

TEST(SpatialHashEdgeCaseTest, VehiclesExactlyOnCellBoundaries) {
  // Every vehicle sits on a multiple of the cell size (including negative
  // coordinates and the origin) — the floor() corner cases.
  const auto snap = at_positions({{0.0, 0.0},
                                  {100.0, 0.0},
                                  {200.0, 0.0},
                                  {-100.0, 0.0},
                                  {0.0, 100.0},
                                  {-100.0, -100.0},
                                  {300.0, 0.0}});
  SpatialHash hash(100.0);
  hash.build(snap);
  EXPECT_EQ(hash.pairs_within(snap, 100.0), brute_pairs(snap, 100.0));
}

TEST(SpatialHashEdgeCaseTest, LinkAtExactlyRangeIsIncluded) {
  // 100.0 m apart, axis-aligned and as a 3-4-5 diagonal: <= means included.
  const auto axis = at_positions({{0.0, 0.0}, {100.0, 0.0}});
  SpatialHash hash(100.0);
  hash.build(axis);
  EXPECT_EQ(hash.pairs_within(axis, 100.0).size(), 1U);

  const auto diagonal = at_positions({{0.0, 0.0}, {60.0, 80.0}});
  hash.build(diagonal);
  EXPECT_EQ(hash.pairs_within(diagonal, 100.0).size(), 1U);

  const auto beyond = at_positions({{0.0, 0.0}, {100.0000001, 0.0}});
  hash.build(beyond);
  EXPECT_TRUE(hash.pairs_within(beyond, 100.0).empty());
}

TEST(SpatialHashEdgeCaseTest, CoLocatedVehiclesFormAllPairs) {
  const auto snap =
      at_positions({{50.0, 50.0}, {50.0, 50.0}, {50.0, 50.0}, {50.0, 50.0}});
  SpatialHash hash(100.0);
  hash.build(snap);
  const auto pairs = hash.pairs_within(snap, 100.0);
  EXPECT_EQ(pairs.size(), 6U);  // C(4, 2)
  EXPECT_EQ(pairs, brute_pairs(snap, 100.0));
}

TEST(SpatialHashEdgeCaseTest, EmptyAndSingleVehicle) {
  SpatialHash hash(100.0);
  const std::vector<VehicleState> empty;
  hash.build(empty);
  EXPECT_TRUE(hash.pairs_within(empty, 100.0).empty());
  EXPECT_EQ(hash.num_cells(), 0U);

  const auto one = at_positions({{10.0, 10.0}});
  hash.build(one);
  EXPECT_TRUE(hash.pairs_within(one, 100.0).empty());

  // A one-vehicle sim produces no links end to end.
  TrajectoryLog log(1, kSecond);
  for (int i = 0; i < 5; ++i) log.append(one);
  EXPECT_TRUE(extract_links(log, 100.0).empty());
}

TEST(SpatialHashEdgeCaseTest, BoundaryLatticeStress) {
  // Vehicles snapped to a 50 m half-cell lattice around the origin: every
  // pair distance is a multiple of 50, so boundary equality happens
  // constantly. The hash must agree with brute force exactly.
  util::Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Vec2> positions;
    const int n = static_cast<int>(rng.uniform_int(2, 40));
    for (int i = 0; i < n; ++i) {
      positions.push_back(Vec2{50.0 * static_cast<double>(rng.uniform_int(-6, 6)),
                               50.0 * static_cast<double>(rng.uniform_int(-6, 6))});
    }
    const auto snap = at_positions(positions);
    SpatialHash hash(100.0);
    hash.build(snap);
    EXPECT_EQ(hash.pairs_within(snap, 100.0), brute_pairs(snap, 100.0))
        << "trial " << trial;
  }
}

TEST(SpatialHashEdgeCaseTest, RangeSmallerThanCellStillExact) {
  util::Rng rng(555);
  std::vector<Vec2> positions;
  for (int i = 0; i < 60; ++i) {
    positions.push_back(Vec2{rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)});
  }
  const auto snap = at_positions(positions);
  SpatialHash hash(100.0);
  hash.build(snap);
  for (const double range : {25.0, 60.0, 99.999, 100.0}) {
    EXPECT_EQ(hash.pairs_within(snap, range), brute_pairs(snap, range))
        << "range " << range;
  }
}

/// The scan decides most pairs by squared distance and leaves only a thin
/// band around the range to std::hypot. Pairs placed within a few ulps of
/// the range, at many angles and scales, must be decided exactly as
/// distance() decides them — including at ranges too small or too large for
/// the band, where hypot decides every pair.
TEST(SpatialHashEdgeCaseTest, PairsWithinUlpsOfRangeDecidedLikeDistance) {
  util::Rng rng(4242);
  for (const double range : {100.0, 0.37, 7.5e6, 1e-160, 1e160}) {
    std::vector<Vec2> positions;
    for (int i = 0; i < 400; ++i) {
      const Vec2 p{rng.uniform(-2.0, 2.0) * range, rng.uniform(-2.0, 2.0) * range};
      const double angle = rng.uniform(0.0, 6.283185307179586);
      double d = range;
      for (int k = static_cast<int>(rng.uniform_int(-2, 2)); k != 0;
           k += k < 0 ? 1 : -1) {
        d = std::nextafter(d, k < 0 ? 0.0 : 2.0 * range);
      }
      positions.push_back(p);
      positions.push_back(Vec2{p.x + d * std::sin(angle), p.y + d * std::cos(angle)});
    }
    const auto snap = at_positions(positions);
    SpatialHash hash(range);
    hash.build(snap);
    const auto pairs = hash.pairs_within(snap, range);
    EXPECT_EQ(pairs, brute_pairs(snap, range)) << "range " << range;
    EXPECT_FALSE(pairs.empty()) << "range " << range;
  }
}

// ---------------------------------------------------------------------------
// Cell-major half-stencil scan: the layouts its key arithmetic and forward
// cursor must get right, each checked against brute force.

TEST(SpatialHashScanTest, NegativeCoordinates) {
  util::Rng rng(8080);
  std::vector<Vec2> positions;
  for (int i = 0; i < 120; ++i) {
    positions.push_back(
        Vec2{rng.uniform(-650.0, 50.0), rng.uniform(-650.0, 50.0)});
  }
  const auto snap = at_positions(positions);
  SpatialHash hash(100.0);
  hash.build(snap);
  const auto pairs = hash.pairs_within(snap, 100.0);
  EXPECT_FALSE(pairs.empty());
  EXPECT_EQ(pairs, brute_pairs(snap, 100.0));
}

TEST(SpatialHashScanTest, RowEndIsNotAdjacentToNextRowStart) {
  // Cell (5, 0) ends row 0 and cell (-3, 1) starts row 1: neighbors in key
  // order, far apart on the ground.
  const auto apart = at_positions({{590.0, 90.0}, {-250.0, 150.0}});
  SpatialHash hash(100.0);
  hash.build(apart);
  EXPECT_EQ(hash.num_cells(), 2U);
  EXPECT_TRUE(hash.pairs_within(apart, 100.0).empty());

  // Same layout plus a real upper-left neighbor (4, 1) of the row-0 end
  // and a row-0 cell far from both.
  const auto linked = at_positions(
      {{590.0, 90.0}, {-250.0, 150.0}, {495.0, 110.0}, {10.0, 20.0}});
  hash.build(linked);
  const auto pairs = hash.pairs_within(linked, 100.0);
  EXPECT_EQ(pairs, (std::vector<VehiclePair>{{0, 2}}));
  EXPECT_EQ(pairs, brute_pairs(linked, 100.0));
}

TEST(SpatialHashScanTest, EmptyRowAboveSkipsToRowTwoAbove) {
  // Rows 0 and 2 are occupied, row 1 is empty: no pair may span the gap,
  // while pairs inside each row must all be found.
  util::Rng rng(99);
  std::vector<Vec2> positions;
  for (int i = 0; i < 80; ++i) {
    const double row_y = rng.bernoulli(0.5) ? 0.0 : 200.0;
    positions.push_back(
        Vec2{rng.uniform(-300.0, 300.0), row_y + rng.uniform(0.0, 99.9)});
  }
  // Boundary vehicles: the closest the two rows get, 100.2 m apart.
  positions.push_back(Vec2{0.0, 99.9});
  positions.push_back(Vec2{0.0, 200.1});
  const auto snap = at_positions(positions);
  SpatialHash hash(100.0);
  hash.build(snap);
  const auto pairs = hash.pairs_within(snap, 100.0);
  EXPECT_FALSE(pairs.empty());
  EXPECT_EQ(pairs, brute_pairs(snap, 100.0));
}

TEST(SpatialHashScanTest, ManyVehiclesInOneCell) {
  util::Rng rng(4242);
  std::vector<Vec2> positions(50, Vec2{420.0, -30.0});
  for (int i = 0; i < 150; ++i) {
    positions.push_back(
        Vec2{rng.uniform(400.0, 499.9), rng.uniform(-99.9, 0.0)});
  }
  for (int i = 0; i < 40; ++i) {
    positions.push_back(
        Vec2{rng.uniform(300.0, 600.0), rng.uniform(-200.0, 100.0)});
  }
  const auto snap = at_positions(positions);
  SpatialHash hash(100.0);
  hash.build(snap);
  const auto pairs = hash.pairs_within(snap, 100.0);
  EXPECT_GE(pairs.size(), 50U * 49U / 2U);
  EXPECT_EQ(pairs, brute_pairs(snap, 100.0));
}

TEST(SpatialHashScanTest, PairsEqualForNullAndPoolsOf1To8Threads) {
  // Several thousand occupied cells: the scan splits into multiple blocks.
  const auto net = RoadNetwork::city_for_scale(5000, 606);
  TrafficSim::Params params;
  params.num_vehicles = 5000;
  params.routing = TrafficSim::Routing::kFollowRoad;
  TrafficSim sim(net, 607, params);
  exp::ThreadPool pool1(1);
  exp::ThreadPool pool2(2);
  exp::ThreadPool pool8(8);
  SpatialHash hash(100.0);
  for (int step = 0; step < 3; ++step) {
    sim.step();
    const auto snap = sim.snapshot();
    hash.build(snap);
    ASSERT_GT(hash.num_cells(), 2048U);
    const auto serial = hash.pairs_within(snap, 100.0);
    EXPECT_EQ(serial, brute_pairs(snap, 100.0)) << "step " << step;
    EXPECT_EQ(hash.pairs_within(snap, 100.0, &pool1), serial);
    EXPECT_EQ(hash.pairs_within(snap, 100.0, &pool2), serial);
    EXPECT_EQ(hash.pairs_within(snap, 100.0, &pool8), serial);
  }
}

TEST(SpatialHashScanTest, BlockBoundariesKeepCrossBlockPairs) {
  // One vehicle per cell of a 40 x 80 lattice: 3200 occupied cells, so the
  // scan splits into several blocks and every block boundary separates
  // touching cells. At cell centers (100 m pitch) every east and north
  // neighbor is at exactly 100 m; jittered, the diagonals link too.
  constexpr int kRows = 40;
  constexpr int kCols = 80;
  util::Rng rng(1024);
  for (const double jitter : {0.0, 49.0}) {
    std::vector<Vec2> positions;
    for (int row = 0; row < kRows; ++row) {
      for (int col = 0; col < kCols; ++col) {
        positions.push_back(
            Vec2{100.0 * col + 50.0 + rng.uniform(-jitter, jitter),
                 100.0 * row + 50.0 + rng.uniform(-jitter, jitter)});
      }
    }
    const auto snap = at_positions(positions);
    SpatialHash hash(100.0);
    hash.build(snap);
    ASSERT_EQ(hash.num_cells(), static_cast<std::size_t>(kRows * kCols));
    const auto serial = hash.pairs_within(snap, 100.0);
    if (jitter == 0.0) {
      EXPECT_EQ(serial.size(), static_cast<std::size_t>(
                                   kRows * (kCols - 1) + (kRows - 1) * kCols));
    }
    EXPECT_EQ(serial, brute_pairs(snap, 100.0)) << "jitter " << jitter;
    exp::ThreadPool pool8(8);
    EXPECT_EQ(hash.pairs_within(snap, 100.0, &pool8), serial);
  }
}

std::string serialized_records(const std::vector<LinkRecord>& records) {
  std::ostringstream os;
  for (const auto& r : records) {
    os << r.vehicle_a << ' ' << r.vehicle_b << ' ' << r.start << ' ' << r.end
       << ' ' << double_bits(r.heading_diff_start_deg) << '\n';
  }
  return os.str();
}

TEST(SpatialHashScanTest, LinkRecordsIdenticalAt1To8ThreadsFor10kVehicles) {
  const auto net = RoadNetwork::city_for_scale(10000, 808);
  TrafficSim::Params params;
  params.num_vehicles = 10000;
  params.routing = TrafficSim::Routing::kFollowRoad;
  TrafficSim sim(net, 809, params);
  exp::ThreadPool pool1(1);
  exp::ThreadPool pool2(2);
  exp::ThreadPool pool8(8);
  LinkTracker::Params tp;
  tp.heading_noise_deg = 2.0;
  tp.noise_seed = 810;
  LinkTracker tracker1(tp, &pool1);
  LinkTracker tracker2(tp, &pool2);
  LinkTracker tracker8(tp, &pool8);
  for (int step = 0; step < 20; ++step) {
    const Time now = static_cast<Time>(step) * kSecond;
    sim.step(pool2);
    const auto snap = sim.snapshot();
    tracker1.observe(now, snap);
    tracker2.observe(now, snap);
    tracker8.observe(now, snap);
  }
  const auto bytes1 = serialized_records(tracker1.finish());
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, serialized_records(tracker2.finish()));
  EXPECT_EQ(bytes1, serialized_records(tracker8.finish()));
}

// ---------------------------------------------------------------------------
// Golden pins at scale: fixed seeds at 100, 1k and 10k vehicles. See file
// header before "fixing" a failure here.

/// Hash of the integer-valued link fields plus coarse histograms. Pure
/// integer pipeline after extraction, so the pin is robust to formatting
/// but pins every id and timestamp bit.
std::uint64_t link_set_hash(const std::vector<LinkRecord>& links) {
  std::ostringstream os;
  int buckets[4] = {0, 0, 0, 0};
  for (const auto& link : links) {
    os << link.vehicle_a << ' ' << link.vehicle_b << ' ' << link.start << ' '
       << link.end << '\n';
    const double d = link.heading_diff_start_deg;
    ++buckets[d < 10.0 ? 0 : d < 20.0 ? 1 : d < 30.0 ? 2 : 3];
  }
  os << buckets[0] << ' ' << buckets[1] << ' ' << buckets[2] << ' '
     << buckets[3] << '\n';
  return fnv1a(os.str());
}

/// CTE (and hint-free) route choices over fixed situations in `log`,
/// serialized as vehicle-id sequences.
std::uint64_t route_choice_hash(const TrajectoryLog& log) {
  std::ostringstream os;
  util::Rng rng(1234);
  const int n = log.num_vehicles();
  for (int probe = 0; probe < 40; ++probe) {
    const auto step =
        static_cast<std::size_t>(rng.uniform_int(0,
            static_cast<std::int64_t>(log.num_steps()) - 1));
    const int src = static_cast<int>(rng.uniform_int(0, n - 1));
    int dst = static_cast<int>(rng.uniform_int(0, n - 1));
    if (dst == src) dst = (dst + 1) % n;
    for (const auto strategy : {RouteStrategy::kCte, RouteStrategy::kHintFree}) {
      const auto route =
          build_route(log.snapshot(step), src, dst, 80.0, strategy, rng);
      os << probe << (strategy == RouteStrategy::kCte ? " cte" : " free");
      if (route.has_value()) {
        for (const int v : route->vehicles) os << ' ' << v;
      } else {
        os << " none";
      }
      os << '\n';
    }
  }
  return fnv1a(os.str());
}

TrajectoryLog golden_log(int vehicles, Duration duration) {
  const auto net = RoadNetwork::city_for_scale(vehicles, 5150);
  TrafficSim::Params params;
  params.num_vehicles = vehicles;
  params.routing = TrafficSim::Routing::kFollowRoad;
  TrafficSim sim(net, 5151, params);
  return sim.run(duration);
}

TEST(VanetGoldenTest, LinkSetPinnedAt100Vehicles) {
  const auto log = golden_log(100, 120 * kSecond);
  const auto links = extract_links(log, 100.0, 2.0, 5152);
  EXPECT_EQ(link_set_hash(links), 18016003162070075766ULL);
}

TEST(VanetGoldenTest, LinkSetPinnedAt1kVehicles) {
  const auto log = golden_log(1000, 60 * kSecond);
  const auto links = extract_links(log, 100.0, 2.0, 5153);
  EXPECT_EQ(link_set_hash(links), 14670397243421855854ULL);
}

/// Every LinkRecord field (heading by its bits) and the per-step
/// active_links() count of a 10k-vehicle city_for_scale run on a 2-thread
/// pool: the scale at which the spatial-hash build and the link table carry
/// real load, so a change to either that reorders or drops a link shows here.
TEST(VanetGoldenTest, LinkRecordsPinnedAt10kVehicles) {
  const auto net = RoadNetwork::city_for_scale(10000, 5160);
  TrafficSim::Params params;
  params.num_vehicles = 10000;
  params.routing = TrafficSim::Routing::kFollowRoad;
  TrafficSim sim(net, 5161, params);
  exp::ThreadPool pool(2);
  LinkTracker::Params tp;
  tp.heading_noise_deg = 2.0;
  tp.noise_seed = 5162;
  LinkTracker tracker(tp, &pool);
  std::ostringstream os;
  for (int step = 0; step <= 30; ++step) {
    if (step > 0) sim.step(pool);
    tracker.observe(static_cast<Time>(step) * kSecond, sim.snapshot());
    os << tracker.active_links() << '\n';
  }
  const auto records = tracker.finish();
  EXPECT_EQ(records.size(), 4127u);
  os << serialized_records(records);
  EXPECT_EQ(fnv1a(os.str()), 15802522405593859367ULL);
}

/// FNV-1a over the bit patterns of every snapshot's x, y, heading and
/// speed — the initial one and one after each of `steps` steps — of a
/// city_for_scale run, stepped serially or on `pool`. Hashed as it goes, so
/// a 10k-vehicle run never holds its whole trajectory.
std::uint64_t trajectory_hash(int vehicles, TrafficSim::Routing routing,
                              int steps, exp::ThreadPool* pool) {
  const auto net = RoadNetwork::city_for_scale(vehicles, 5170);
  TrafficSim::Params params;
  params.num_vehicles = vehicles;
  params.routing = routing;
  TrafficSim sim(net, 5171, params);
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](double v) {
    const std::uint64_t bits = double_bits(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (int step = 0; step <= steps; ++step) {
    if (step > 0) {
      if (pool != nullptr) {
        sim.step(*pool);
      } else {
        sim.step();
      }
    }
    for (const auto& s : sim.snapshot()) {
      mix(s.position.x);
      mix(s.position.y);
      mix(s.heading_deg);
      mix(s.speed_mps);
    }
  }
  return h;
}

/// Every position, heading and reported speed of a 10k-vehicle kFollowRoad
/// run over 200 steps, serial and sharded: the mobility step's own output,
/// which the link pins only see through proximity.
TEST(VanetGoldenTest, TrajectoryPinnedAt10kVehicles) {
  constexpr std::uint64_t kPinned = 3516075034864421291ULL;
  const auto routing = TrafficSim::Routing::kFollowRoad;
  EXPECT_EQ(trajectory_hash(10000, routing, 200, nullptr), kPinned);
  exp::ThreadPool pool2(2);
  EXPECT_EQ(trajectory_hash(10000, routing, 200, &pool2), kPinned);
  exp::ThreadPool pool8(8);
  EXPECT_EQ(trajectory_hash(10000, routing, 200, &pool8), kPinned);
}

/// The kRandomTrips twin: shortest-path trips instead of road following.
TEST(VanetGoldenTest, RandomTripsTrajectoryPinnedAt1kVehicles) {
  constexpr std::uint64_t kPinned = 18228551953264822338ULL;
  const auto routing = TrafficSim::Routing::kRandomTrips;
  EXPECT_EQ(trajectory_hash(1000, routing, 200, nullptr), kPinned);
  exp::ThreadPool pool2(2);
  EXPECT_EQ(trajectory_hash(1000, routing, 200, &pool2), kPinned);
  exp::ThreadPool pool8(8);
  EXPECT_EQ(trajectory_hash(1000, routing, 200, &pool8), kPinned);
}

TEST(VanetGoldenTest, CteRouteChoicesPinnedAt100Vehicles) {
  const auto log = golden_log(100, 60 * kSecond);
  EXPECT_EQ(route_choice_hash(log), 17667719130752279753ULL);
}

TEST(VanetGoldenTest, CteRouteChoicesPinnedAt1kVehicles) {
  const auto log = golden_log(1000, 30 * kSecond);
  EXPECT_EQ(route_choice_hash(log), 7890649670471706801ULL);
}

// ---------------------------------------------------------------------------
// Radix-built index: build() against a std::sort reference of the same
// (cell key, vehicle id) pairs — members, cell keys and offsets.

/// The index build() must produce, from std::sort over (cell key, id) with
/// the key computed independently of SpatialHash::pack().
struct SortedIndex {
  std::vector<std::uint64_t> cell_keys;
  std::vector<std::size_t> cell_begin;
  std::vector<int> members;
};

SortedIndex sorted_index(const std::vector<VehicleState>& snap, double cell_m) {
  constexpr std::int64_t kBias = std::int64_t{1} << 31;
  std::vector<std::pair<std::uint64_t, int>> keyed;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const auto ix =
        static_cast<std::int64_t>(std::floor(snap[i].position.x / cell_m));
    const auto iy =
        static_cast<std::int64_t>(std::floor(snap[i].position.y / cell_m));
    const std::uint64_t key =
        static_cast<std::uint64_t>(iy + kBias) * (std::uint64_t{1} << 32) +
        static_cast<std::uint64_t>(ix + kBias);
    keyed.emplace_back(key, static_cast<int>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  SortedIndex index;
  for (std::size_t m = 0; m < keyed.size(); ++m) {
    if (m == 0 || keyed[m].first != keyed[m - 1].first) {
      index.cell_keys.push_back(keyed[m].first);
      index.cell_begin.push_back(m);
    }
    index.members.push_back(keyed[m].second);
  }
  index.cell_begin.push_back(keyed.size());
  return index;
}

void expect_index_matches_sort(const std::vector<VehicleState>& snap,
                               double cell_m, const std::string& label) {
  SpatialHash hash(cell_m);
  hash.build(snap);
  const auto ref = sorted_index(snap, cell_m);
  EXPECT_EQ(hash.members(), ref.members) << label;
  EXPECT_EQ(hash.cell_keys(), ref.cell_keys) << label;
  EXPECT_EQ(hash.cell_begin(), ref.cell_begin) << label;
}

/// n vehicles placed uniformly over [x0, x1) x [y0, y1).
std::vector<VehicleState> uniform_snapshot(util::Rng& rng, int n, double x0,
                                           double x1, double y0, double y1) {
  std::vector<VehicleState> snap;
  for (int i = 0; i < n; ++i) {
    snap.push_back(
        VehicleState{{rng.uniform(x0, x1), rng.uniform(y0, y1)}, 0.0, 0.0});
  }
  return snap;
}

TEST(SpatialHashRadixTest, BuildEqualsStdSortOnNegativeAndWideSpreads) {
  util::Rng rng(9001);
  constexpr double kCell = 100.0;
  // Spreads in cells per axis: under one 11-bit digit, across several,
  // lopsided either way, and a dense grid where cells hold many vehicles.
  const std::pair<double, double> spreads[] = {
      {30.0, 30.0},   {5000.0, 3.0}, {3.0, 5000.0}, {3e6, 2e5},
      {4e8, 4e8},     {1.0, 1.0},    {0.5, 0.5},    {2e9, 7.0}};
  for (const auto& [sx, sy] : spreads) {
    for (const double origin : {-1e5, 0.0, -3.7e6}) {
      const int n = static_cast<int>(rng.uniform_int(2, 400));
      const auto snap = uniform_snapshot(rng, n, origin, origin + sx * kCell,
                                         -origin - sy * kCell, -origin);
      expect_index_matches_sort(snap, kCell,
                                "spread " + std::to_string(sx) + "x" +
                                    std::to_string(sy) + " origin " +
                                    std::to_string(origin));
    }
  }
}

TEST(SpatialHashRadixTest, BuildEqualsStdSortForOneCellAndTinyFleets) {
  util::Rng rng(9002);
  expect_index_matches_sort({}, 100.0, "n = 0");
  expect_index_matches_sort(uniform_snapshot(rng, 1, -50.0, 50.0, -50.0, 50.0),
                            100.0, "n = 1");
  // Every vehicle in the one cell [-100, 0)^2: zero radix passes.
  const auto one_cell = uniform_snapshot(rng, 300, -99.0, -1.0, -99.0, -1.0);
  expect_index_matches_sort(one_cell, 100.0, "one cell");
  SpatialHash hash(100.0);
  hash.build(one_cell);
  EXPECT_EQ(hash.num_cells(), 1U);
}

TEST(SpatialHashRadixTest, BuildEqualsStdSortAtCellsNearPlusMinus2To31) {
  // Cells -2^31 and 2^31 - 1 on either axis, and their neighbors: the full
  // 64-bit key spread, so every digit pass runs.
  constexpr double kCell = 1.0;
  constexpr double kLimit = 2147483648.0;
  const double xs[] = {-kLimit, -kLimit + 0.5, -kLimit + 1.25, kLimit - 0.5,
                       kLimit - 1.5, kLimit - 1e-3, 0.0};
  util::Rng rng(9003);
  std::vector<VehicleState> snap;
  for (int i = 0; i < 200; ++i) {
    const auto pick = [&] {
      return xs[static_cast<std::size_t>(rng.uniform_int(0, 6))];
    };
    snap.push_back(VehicleState{{pick(), pick()}, 0.0, 0.0});
  }
  expect_index_matches_sort(snap, kCell, "extreme cells");

  // Pairs straddling cell boundaries at both extremes, and in the corners
  // where a top-row or last-column key's stencil arithmetic wraps.
  const auto extremes = at_positions(
      {{-kLimit, -kLimit}, {-kLimit + 0.9, -kLimit + 0.3},
       {-kLimit + 1.2, -kLimit}, {kLimit - 0.1, kLimit - 0.1},
       {kLimit - 1.05, kLimit - 0.6},
       {kLimit - 0.2, -kLimit + 0.1}, {-kLimit + 0.1, kLimit - 0.2},
       {kLimit - 0.7, kLimit - 1.3}});
  SpatialHash hash(kCell);
  hash.build(extremes);
  EXPECT_EQ(hash.pairs_within(extremes, kCell), brute_pairs(extremes, kCell));
}

TEST(SpatialHashRadixTest, PairListSortedOverManyDigitWidths) {
  // Fleets whose id width needs one, two and three radix passes for the
  // packed (a, b) key; dense enough that pairs are plentiful.
  util::Rng rng(9004);
  for (const int n : {3, 40, 700, 2500}) {
    const double side = 20.0 * std::sqrt(static_cast<double>(n));
    const auto snap = uniform_snapshot(rng, n, -side, side, -side, side);
    SpatialHash hash(100.0);
    hash.build(snap);
    EXPECT_EQ(hash.pairs_within(snap, 100.0), brute_pairs(snap, 100.0))
        << "n " << n;
  }
}

// ---------------------------------------------------------------------------
// Contracts that hold in every build type.

TEST(SpatialHashContractTest, CellSizeMustBePositive) {
  EXPECT_THROW(SpatialHash(0.0), std::invalid_argument);
  EXPECT_THROW(SpatialHash(-1.0), std::invalid_argument);
  EXPECT_THROW(SpatialHash(std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(SpatialHash(1e-3));
}

TEST(SpatialHashContractTest, RangeBeyondCellThrows) {
  const auto snap = at_positions({{0.0, 0.0}, {150.0, 0.0}});
  SpatialHash hash(100.0);
  hash.build(snap);
  // 150 m apart, two cells: a 150 m query would silently miss this pair.
  EXPECT_THROW(hash.pairs_within(snap, 150.0), std::invalid_argument);
  EXPECT_THROW(hash.pairs_within(snap, std::nan("")), std::invalid_argument);
  EXPECT_TRUE(hash.pairs_within(snap, 100.0).empty());
}

TEST(SpatialHashContractTest, NonFiniteOrOutOfRangePositionThrows) {
  constexpr double kCell = 100.0;
  constexpr double kLimit = 2147483648.0 * kCell;  // 2^31 cells
  const double inf = std::numeric_limits<double>::infinity();
  const Vec2 bad[] = {{std::nan(""), 0.0}, {0.0, std::nan("")},
                      {inf, 0.0},          {0.0, -inf},
                      {kLimit, 0.0},       {0.0, kLimit},
                      {-kLimit - 1.0, 0.0}, {0.0, -kLimit - 1.0},
                      {1e300, 1e300}};
  for (const auto& p : bad) {
    SpatialHash hash(kCell);
    const auto good = at_positions({{0.0, 0.0}, {10.0, 0.0}});
    hash.build(good);
    ASSERT_EQ(hash.num_cells(), 1U);
    const auto snap = at_positions({{0.0, 0.0}, p});
    EXPECT_THROW(hash.build(snap), std::out_of_range) << p.x << ", " << p.y;
    // A failed build leaves the index empty, not that of the last snapshot.
    EXPECT_EQ(hash.num_cells(), 0U);
    EXPECT_EQ(hash.cell_begin(), std::vector<std::size_t>{0});
    EXPECT_TRUE(hash.members().empty());
  }
  // The extreme cells themselves are in range.
  SpatialHash hash(kCell);
  const auto edge =
      at_positions({{-kLimit, -kLimit}, {kLimit - 1.0, kLimit - 1.0}});
  EXPECT_NO_THROW(hash.build(edge));
  EXPECT_EQ(hash.num_cells(), 2U);
}

// ---------------------------------------------------------------------------
// Flat link table ≡ the std::map tracker it replaced, over random snapshot
// streams.

/// The std::map-backed LinkTracker, kept as the differential reference:
/// same merge walk, same birth-noise draws, same events. It takes its pairs
/// from brute force, so it shares no code with the production path.
class MapLinkTracker {
 public:
  explicit MapLinkTracker(LinkTracker::Params params)
      : params_(params), noise_rng_(params.noise_seed) {}

  void observe(Time now, const std::vector<VehicleState>& snapshot) {
    const auto connected = brute_pairs(snapshot, params_.range_m);
    auto it = active_.begin();
    const auto close_link = [&](decltype(it)& link_it) {
      completed_.push_back(link_it->second);
      if (params_.record_events) {
        events_.push_back(LinkEvent{now, false, link_it->second.vehicle_a,
                                    link_it->second.vehicle_b, 0.0});
      }
      link_it = active_.erase(link_it);
    };
    for (const auto& pair : connected) {
      while (it != active_.end() && it->first < pair) close_link(it);
      if (it != active_.end() && it->first == pair) {
        it->second.end = now;
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
      it = active_.emplace_hint(it, pair, rec);
      if (params_.record_events) {
        events_.push_back(LinkEvent{now, true, pair.first, pair.second,
                                    rec.heading_diff_start_deg});
      }
      ++it;
    }
    while (it != active_.end()) close_link(it);
  }

  std::vector<LinkRecord> finish() {
    for (const auto& [key, rec] : active_) completed_.push_back(rec);
    active_.clear();
    return std::move(completed_);
  }

  const std::vector<LinkEvent>& events() const { return events_; }
  std::size_t active_links() const { return active_.size(); }

 private:
  LinkTracker::Params params_;
  util::Rng noise_rng_;
  std::map<std::pair<int, int>, LinkRecord> active_;
  std::vector<LinkRecord> completed_;
  std::vector<LinkEvent> events_;
};

/// One step of a random snapshot stream: most vehicles drift a few metres,
/// some jump anywhere in the area (across many cells), headings are redrawn,
/// and vehicle 1 sits 95 m then 105 m from vehicle 0 on alternate steps, so
/// that link breaks and re-forms in consecutive steps.
void random_step(util::Rng& rng, int step, double half_side,
                 std::vector<VehicleState>& snap) {
  for (auto& v : snap) {
    if (rng.bernoulli(0.1)) {
      v.position = {rng.uniform(-half_side, half_side),
                    rng.uniform(-half_side, half_side)};
    } else {
      v.position.x += rng.normal(0.0, 15.0);
      v.position.y += rng.normal(0.0, 15.0);
    }
    v.heading_deg = rng.uniform(0.0, 360.0);
  }
  snap[1].position = {snap[0].position.x + (step % 2 == 0 ? 95.0 : 105.0),
                      snap[0].position.y};
}

TEST(LinkTableDifferentialTest, FlatTableEqualsMapTrackerOnRandomStreams) {
  util::Rng meta(4242);
  for (int trial = 0; trial < 16; ++trial) {
    LinkTracker::Params params;
    params.range_m = meta.uniform(60.0, 120.0);
    params.heading_noise_deg = 3.0;
    params.noise_seed = meta();
    params.record_events = true;
    LinkTracker flat(params);
    MapLinkTracker ref(params);
    // Two streams per tracker pair: finish() ends one, and the next starts
    // over at time 0 with another fleet size.
    for (int stream = 0; stream < 2; ++stream) {
      const int n = static_cast<int>(meta.uniform_int(2, 160));
      const double half_side = meta.uniform(150.0, 900.0);
      std::vector<VehicleState> snap(static_cast<std::size_t>(n));
      Time now = 0;
      for (int step = 0; step < 40; ++step) {
        random_step(meta, step, half_side, snap);
        flat.observe(now, snap);
        ref.observe(now, snap);
        ASSERT_EQ(flat.active_links(), ref.active_links())
            << "trial " << trial << " stream " << stream << " step " << step;
        // Nondecreasing, not increasing: now sometimes repeats.
        if (meta.bernoulli(0.8)) now += kSecond;
      }
      EXPECT_EQ(serialized_records(flat.finish()),
                serialized_records(ref.finish()))
          << "trial " << trial << " stream " << stream;
    }
    ASSERT_FALSE(ref.events().empty());
    EXPECT_EQ(serialized_events(flat.events()), serialized_events(ref.events()))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace sh::vanet

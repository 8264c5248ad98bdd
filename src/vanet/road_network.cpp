#include "vanet/road_network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numbers>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace sh::vanet {

namespace {

/// Largest network a builder makes: ids fit an Intersection, and four
/// neighbors per node fit the 32-bit offsets.
constexpr std::int64_t kMaxIntersections = (std::int64_t{1} << 30) - 1;

void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

/// Node count of a `cols` x `rows` lattice; larger than kMaxIntersections
/// is a bad shape.
std::size_t lattice_size(std::int64_t cols, std::int64_t rows,
                         const char* message) {
  require(cols <= kMaxIntersections && rows <= kMaxIntersections &&
              cols * rows <= kMaxIntersections,
          message);
  return static_cast<std::size_t>(cols * rows);
}

}  // namespace

double distance(const Vec2& a, const Vec2& b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

double heading_of(const Vec2& from, const Vec2& to) noexcept {
  const double dx = to.x - from.x;
  const double dy = to.y - from.y;
  // atan2(dx, dy): 0 = north (+y), 90 = east (+x), clockwise.
  double deg = std::atan2(dx, dy) * 180.0 / std::numbers::pi;
  if (deg < 0.0) deg += 360.0;
  return deg;
}

RoadNetwork RoadNetwork::grid(int cols, int rows, double spacing_m) {
  require(cols >= 2 && rows >= 2,
          "RoadNetwork::grid: cols and rows must be >= 2");
  require(spacing_m > 0.0 && std::isfinite(spacing_m),
          "RoadNetwork::grid: spacing_m must be positive and finite");
  const std::size_t n =
      lattice_size(cols, rows, "RoadNetwork::grid: too many intersections");
  RoadNetwork net;
  net.spacing_m_ = spacing_m;
  net.positions_.reserve(n);
  net.offsets_.reserve(n + 1);
  net.offsets_.push_back(0);
  // Two entries per segment: rows * (cols - 1) across, cols * (rows - 1) up.
  net.targets_.reserve(2 * (2 * n - static_cast<std::size_t>(cols + rows)));
  auto id = [cols](int c, int r) { return r * cols + c; };
  // Each node's neighbors are appended in node order, so the CSR fills as
  // the nodes are made.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      net.positions_.push_back(Vec2{c * spacing_m, r * spacing_m});
      if (c > 0) net.targets_.push_back(id(c - 1, r));
      if (c + 1 < cols) net.targets_.push_back(id(c + 1, r));
      if (r > 0) net.targets_.push_back(id(c, r - 1));
      if (r + 1 < rows) net.targets_.push_back(id(c, r + 1));
      net.offsets_.push_back(static_cast<std::uint32_t>(net.targets_.size()));
    }
  }
  return net;
}

RoadNetwork RoadNetwork::irregular_grid(int cols, int rows, double spacing_m,
                                        double jitter_frac,
                                        std::uint64_t seed) {
  require(jitter_frac >= 0.0 && jitter_frac < 0.5,
          "RoadNetwork::irregular_grid: jitter_frac must be in [0, 0.5)");
  RoadNetwork net = grid(cols, rows, spacing_m);
  util::Rng rng(seed);
  const double jitter = jitter_frac * spacing_m;
  for (auto& pos : net.positions_) {
    pos.x += rng.uniform(-jitter, jitter);
    pos.y += rng.uniform(-jitter, jitter);
  }
  return net;
}

RoadNetwork RoadNetwork::chords_city(int num_roads, double size_m,
                                     std::uint64_t seed, double cluster_frac,
                                     double cluster_spread_deg) {
  require(num_roads >= 2, "RoadNetwork::chords_city: num_roads must be >= 2");
  require(size_m > 0.0 && std::isfinite(size_m),
          "RoadNetwork::chords_city: size_m must be positive and finite");
  require(cluster_frac >= 0.0 && cluster_frac <= 1.0,
          "RoadNetwork::chords_city: cluster_frac must be in [0, 1]");
  require(cluster_spread_deg >= 0.0 && std::isfinite(cluster_spread_deg),
          "RoadNetwork::chords_city: cluster_spread_deg must be >= 0 and "
          "finite");
  util::Rng rng(seed);
  const double base_angle = rng.uniform(0.0, std::numbers::pi / 2.0);
  const double spread_rad = cluster_spread_deg * std::numbers::pi / 180.0;

  struct Road {
    Vec2 point;   // A point the road passes through.
    Vec2 dir;     // Unit direction.
    double t_min = 0.0, t_max = 0.0;  // Param range inside the square.
  };
  std::vector<Road> roads;
  roads.reserve(static_cast<std::size_t>(num_roads));
  for (int i = 0; i < num_roads; ++i) {
    Road road;
    double angle;
    if (rng.uniform() < cluster_frac) {
      const double principal =
          rng.bernoulli(0.5) ? base_angle : base_angle + std::numbers::pi / 2.0;
      angle = principal + rng.normal(0.0, spread_rad);
    } else {
      angle = rng.uniform(0.0, std::numbers::pi);
    }
    road.dir = Vec2{std::cos(angle), std::sin(angle)};
    road.point = Vec2{rng.uniform(0.1 * size_m, 0.9 * size_m),
                      rng.uniform(0.1 * size_m, 0.9 * size_m)};
    // Clip the infinite line to the square: intersect with x=0, x=size,
    // y=0, y=size and keep the [t_min, t_max] span inside.
    double t_min = -1e18, t_max = 1e18;
    auto clip = [&](double p, double d) {
      if (std::fabs(d) < 1e-12) return;  // Parallel to this boundary pair.
      double t0 = (0.0 - p) / d;
      double t1 = (size_m - p) / d;
      if (t0 > t1) std::swap(t0, t1);
      t_min = std::max(t_min, t0);
      t_max = std::min(t_max, t1);
    };
    clip(road.point.x, road.dir.x);
    clip(road.point.y, road.dir.y);
    road.t_min = t_min;
    road.t_max = t_max;
    roads.push_back(road);
  }

  RoadNetwork net;
  net.spacing_m_ = size_m / std::sqrt(static_cast<double>(num_roads));
  auto node_at = [&net](const Vec2& pos) -> Intersection {
    for (std::size_t i = 0; i < net.positions_.size(); ++i) {
      if (distance(net.positions_[i], pos) < 1.0)
        return static_cast<Intersection>(i);
    }
    net.positions_.push_back(pos);
    return static_cast<Intersection>(net.positions_.size() - 1);
  };

  // Per road: collect the endpoints plus every in-bounds crossing with the
  // other roads, ordered along the road, then chain them into edges.
  std::vector<Append> appends;
  std::set<std::pair<Intersection, Intersection>> segments;  // (min, max).
  for (std::size_t i = 0; i < roads.size(); ++i) {
    const Road& a = roads[i];
    std::vector<double> ts{a.t_min, a.t_max};
    for (std::size_t j = 0; j < roads.size(); ++j) {
      if (j == i) continue;
      const Road& b = roads[j];
      // Solve a.point + t*a.dir == b.point + s*b.dir.
      const double det = a.dir.x * (-b.dir.y) - a.dir.y * (-b.dir.x);
      if (std::fabs(det) < 1e-9) continue;  // Parallel roads.
      const double rx = b.point.x - a.point.x;
      const double ry = b.point.y - a.point.y;
      const double t = (rx * (-b.dir.y) - ry * (-b.dir.x)) / det;
      const double s = (a.dir.x * ry - a.dir.y * rx) / det;
      if (t < a.t_min || t > a.t_max || s < b.t_min || s > b.t_max) continue;
      ts.push_back(t);
    }
    std::sort(ts.begin(), ts.end());
    Intersection prev = -1;
    double prev_t = 0.0;
    for (const double t : ts) {
      if (prev != -1 && t - prev_t < 20.0) continue;  // Merge near crossings.
      const Vec2 pos{a.point.x + t * a.dir.x, a.point.y + t * a.dir.y};
      const Intersection node = node_at(pos);
      if (prev != -1 && node != prev &&
          segments.insert(std::minmax(prev, node)).second) {
        appends.emplace_back(prev, node);
        appends.emplace_back(node, prev);
      }
      prev = node;
      prev_t = t;
    }
  }
  net.set_adjacency(appends);
  return net;
}

RoadNetwork RoadNetwork::city_grid(int districts_cols, int districts_rows,
                                   int blocks_per_district, double block_m,
                                   std::uint64_t seed, double local_drop_frac,
                                   double jitter_frac) {
  require(districts_cols >= 1 && districts_rows >= 1,
          "RoadNetwork::city_grid: district counts must be >= 1");
  require(blocks_per_district >= 2,
          "RoadNetwork::city_grid: blocks_per_district must be >= 2");
  require(block_m > 0.0 && std::isfinite(block_m),
          "RoadNetwork::city_grid: block_m must be positive and finite");
  require(local_drop_frac >= 0.0 && local_drop_frac < 1.0,
          "RoadNetwork::city_grid: local_drop_frac must be in [0, 1)");
  require(jitter_frac >= 0.0 && jitter_frac < 0.5,
          "RoadNetwork::city_grid: jitter_frac must be in [0, 0.5)");
  const std::size_t n =
      lattice_size(std::int64_t{districts_cols} * blocks_per_district + 1,
                   std::int64_t{districts_rows} * blocks_per_district + 1,
                   "RoadNetwork::city_grid: too many intersections");
  const int cols = districts_cols * blocks_per_district + 1;
  const int rows = districts_rows * blocks_per_district + 1;
  RoadNetwork net;
  net.spacing_m_ = block_m;
  net.positions_.reserve(n);
  util::Rng rng(seed);
  const auto id = [cols](int c, int r) { return r * cols + c; };
  const auto on_arterial = [blocks_per_district](int v) {
    return v % blocks_per_district == 0;
  };
  const double jitter = jitter_frac * block_m;
  // Row-major position pass: arterial intersections stay on the lattice so
  // arterials run straight; pure-local intersections are displaced, giving
  // local segments the orientation variety Table 5.1's intermediate
  // heading-difference buckets need.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      Vec2 pos{c * block_m, r * block_m};
      if (!on_arterial(c) && !on_arterial(r)) {
        pos.x += rng.uniform(-jitter, jitter);
        pos.y += rng.uniform(-jitter, jitter);
      }
      net.positions_.push_back(pos);
    }
  }
  // Row-major edge pass (east edge then north edge per node — a fixed order,
  // so the thinning draws are a pure function of the seed). An edge is
  // arterial iff it runs along a district boundary line. Each node keeps the
  // bits of the edges it starts.
  enum : std::uint8_t { kEast = 1, kNorth = 2, kReconnected = 4 };
  std::vector<std::uint8_t> roads(n, 0);
  std::size_t entries = 0;  // Two per kept edge.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      auto& bits = roads[static_cast<std::size_t>(id(c, r))];
      if (c + 1 < cols && (on_arterial(r) || !rng.bernoulli(local_drop_frac))) {
        bits |= kEast;
      }
      if (r + 1 < rows && (on_arterial(c) || !rng.bernoulli(local_drop_frac))) {
        bits |= kNorth;
      }
      entries += 2 * static_cast<std::size_t>(std::popcount(bits));
    }
  }
  // Thinning can strand an interior node (every incident local street
  // dropped); reconnect it eastward so no vehicle spawns parked forever.
  // Those streets follow the lattice ones in both endpoints' lists, in the
  // order they are made.
  const auto south = [&roads, cols](std::size_t i) {
    return roads[i - static_cast<std::size_t>(cols)];
  };
  const auto stranded = [&](int c, int r) {
    const auto i = static_cast<std::size_t>(id(c, r));
    return roads[i] == 0 && (c == 0 || (roads[i - 1] & kEast) == 0) &&
           (r == 0 || (south(i) & kNorth) == 0);
  };
  std::vector<Append> reconnects;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (!stranded(c, r)) continue;
      const Intersection node = id(c, r);
      const Intersection other = c + 1 < cols ? id(c + 1, r) : id(c - 1, r);
      reconnects.emplace_back(node, other);
      reconnects.emplace_back(other, node);
      roads[static_cast<std::size_t>(node)] |= kReconnected;
      roads[static_cast<std::size_t>(other)] |= kReconnected;
    }
  }
  std::ranges::stable_sort(reconnects, std::less{}, &Append::first);
  // CSR fill in node order. A node's lattice neighbors arrive in the order
  // the edge pass made them: its south edge (made a row earlier), its west
  // edge, then its own east and north edges.
  net.offsets_.reserve(n + 1);
  net.offsets_.push_back(0);
  net.targets_.reserve(entries + reconnects.size());
  auto extra = reconnects.cbegin();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Intersection node = id(c, r);
      const auto i = static_cast<std::size_t>(node);
      if (r > 0 && (south(i) & kNorth) != 0) {
        net.targets_.push_back(node - cols);
      }
      if (c > 0 && (roads[i - 1] & kEast) != 0) {
        net.targets_.push_back(node - 1);
      }
      if ((roads[i] & kEast) != 0) net.targets_.push_back(node + 1);
      if ((roads[i] & kNorth) != 0) net.targets_.push_back(node + cols);
      for (; extra != reconnects.cend() && extra->first == node; ++extra) {
        net.targets_.push_back(extra->second);
      }
      net.offsets_.push_back(static_cast<std::uint32_t>(net.targets_.size()));
    }
  }
  return net;
}

RoadNetwork RoadNetwork::city_for_scale(int vehicles, std::uint64_t seed) {
  require(vehicles >= 1, "RoadNetwork::city_for_scale: vehicles must be >= 1");
  // ~9e4 m² per vehicle — the 100-vehicle / 3000 m chords_city density the
  // Table 5-1 reproduction calibrated against.
  const double side_m = std::sqrt(static_cast<double>(vehicles) * 9.0e4);
  constexpr int kBlocksPerDistrict = 5;
  constexpr double kBlockM = 150.0;
  const int districts = std::max(
      2, static_cast<int>(std::lround(side_m / (kBlocksPerDistrict * kBlockM))));
  return city_grid(districts, districts, kBlocksPerDistrict, kBlockM, seed);
}

std::vector<RoadNetwork::Intersection> RoadNetwork::shortest_path(
    Intersection from, Intersection to) const {
  for (const Intersection id : {from, to}) {
    if (id < 0 || id >= num_intersections()) throw_bad_id("shortest_path", id);
  }
  if (from == to) return {};
  std::vector<Intersection> parent(positions_.size(), -1);
  std::queue<Intersection> frontier;
  frontier.push(from);
  parent[static_cast<std::size_t>(from)] = from;
  while (!frontier.empty()) {
    const Intersection cur = frontier.front();
    frontier.pop();
    if (cur == to) break;
    for (const Intersection next : neighbors(cur)) {
      if (parent[static_cast<std::size_t>(next)] != -1) continue;
      parent[static_cast<std::size_t>(next)] = cur;
      frontier.push(next);
    }
  }
  if (parent[static_cast<std::size_t>(to)] == -1) return {};
  std::vector<Intersection> path;
  for (Intersection cur = to; cur != from;
       cur = parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
  }
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

void RoadNetwork::set_adjacency(std::span<const Append> appends) {
  // Count each node's entries, prefix-sum the counts into offsets, then
  // scatter the entries in append order behind per-node cursors.
  offsets_.assign(positions_.size() + 1, 0);
  for (const Append& append : appends) {
    ++offsets_[static_cast<std::size_t>(append.first) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  targets_.resize(appends.size());
  for (const auto& [node, next] : appends) {
    targets_[cursor[static_cast<std::size_t>(node)]++] = next;
  }
}

void RoadNetwork::throw_bad_id(const char* what, Intersection i) {
  std::string message = "RoadNetwork::";
  message += what;
  message += ": intersection ";
  message += std::to_string(i);
  message += " is out of range";
  throw std::out_of_range(message);
}

}  // namespace sh::vanet

// Table 5.1: median link duration by initial heading difference across 15
// vehicular networks of 100 vehicles each. Links = pairs within 100 m,
// sampled at 1 Hz, on an arterial city road network.
//
// Paper's row:  [0,10) -> 66 s, [10,20) -> 32 s, [20,30) -> 15 s,
// [30,180] -> 9 s, all links -> 16 s; i.e. similar-heading links live 4-5x
// longer than the median over all links — the basis of the CTE metric.
//
// --vehicles N scales the experiment past the paper's testbed: N vehicles on
// a city_for_scale metro (same density), sharded stepping over a thread pool
// and streaming link extraction — the default invocation is byte-identical
// to the pre-scaling bench.
#include <cstdio>
#include <iostream>

#include "bench_cli.h"
#include "exp/thread_pool.h"
#include "util/stats.h"
#include "util/table.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/traffic_sim.h"

using namespace sh;

namespace {

struct BucketSet {
  util::Percentile buckets[4];
  util::Percentile all;
  std::size_t total_links = 0;

  void add(const std::vector<vanet::LinkRecord>& links) {
    total_links += links.size();
    for (const auto& link : links) {
      const double d = link.heading_diff_start_deg;
      const int bucket = d < 10.0 ? 0 : d < 20.0 ? 1 : d < 30.0 ? 2 : 3;
      buckets[bucket].add(link.duration_s());
      all.add(link.duration_s());
    }
  }
};

void print_table(BucketSet& set) {
  util::Table table({"heading diff", "median duration (s)", "links"});
  const char* names[4] = {"[0,10)", "[10,20)", "[20,30)", "[30,180]"};
  for (int b = 0; b < 4; ++b) {
    table.add_row({names[b],
                   set.buckets[b].empty() ? "-" : util::fmt(set.buckets[b].median(), 0),
                   std::to_string(set.buckets[b].count())});
  }
  table.add_row({"all links", util::fmt(set.all.median(), 0),
                 std::to_string(set.all.count())});
  table.print(std::cout);

  std::printf("\nTotal links observed: %zu\n", set.total_links);
  std::printf(
      "Similar-heading ([0,10)) to all-links median ratio: %.1fx "
      "(paper: 66/16 = 4.1x)\n",
      set.buckets[0].median() / set.all.median());
}

/// The paper-faithful configuration: 15 chords_city networks, 100 vehicles,
/// 600 s, in-memory trajectory logs. Unchanged output.
int run_paper_scale() {
  std::printf(
      "=== Table 5.1: median link duration (s) by heading difference ===\n"
      "(15 networks x 100 vehicles, 600 s each, 100 m link range, 1 Hz)\n\n");

  BucketSet set;
  for (int net = 0; net < 15; ++net) {
    const auto road = vanet::RoadNetwork::chords_city(
        16, 3000.0, 5000 + static_cast<std::uint64_t>(net), 0.75, 6.0);
    vanet::TrafficSim::Params params;
    params.routing = vanet::TrafficSim::Routing::kFollowRoad;
    params.turn_probability = 0.08;
    vanet::TrafficSim sim(road, 6000 + static_cast<std::uint64_t>(net), params);
    const auto log = sim.run(600 * kSecond);
    const auto links = vanet::extract_links(
        log, 100.0, /*heading_noise_deg=*/2.0,
        7000 + static_cast<std::uint64_t>(net));
    set.add(links);
  }
  print_table(set);
  std::printf(
      "\nPaper's row: 66 / 32 / 15 / 9, all links 16 — heading difference "
      "is a strong predictor of link duration.\n");
  return 0;
}

/// City scale: 3 metros at the same vehicle density, sharded stepping, and
/// streaming link extraction (no trajectory log — a 100k-vehicle one would
/// not fit).
int run_city_scale(int vehicles) {
  const int networks = 3;
  const int duration_s = 300;
  std::printf(
      "=== Table 5.1 at city scale: median link duration (s) by heading "
      "difference ===\n(%d networks x %d vehicles, %d s each, 100 m link "
      "range, 1 Hz, spatial-hash streaming)\n\n",
      networks, vehicles, duration_s);

  exp::ThreadPool pool;
  BucketSet set;
  for (int net = 0; net < networks; ++net) {
    const auto road = vanet::RoadNetwork::city_for_scale(
        vehicles, 5000 + static_cast<std::uint64_t>(net));
    vanet::TrafficSim::Params params;
    params.num_vehicles = vehicles;
    params.routing = vanet::TrafficSim::Routing::kFollowRoad;
    params.turn_probability = 0.08;
    vanet::TrafficSim sim(road, 6000 + static_cast<std::uint64_t>(net), params);
    vanet::LinkTracker::Params tp;
    tp.heading_noise_deg = 2.0;
    tp.noise_seed = 7000 + static_cast<std::uint64_t>(net);
    vanet::LinkTracker tracker(tp, &pool);
    Time now = 0;
    tracker.observe(now, sim.snapshot());
    for (int s = 0; s < duration_s; ++s) {
      sim.step(pool);
      now += kSecond;
      tracker.observe(now, sim.snapshot());
    }
    set.add(tracker.finish());
  }
  print_table(set);
  std::printf(
      "\nSame density as the 100-vehicle testbed, so the bucket medians "
      "should track the paper-scale run; the point is that they now come "
      "from a fleet the O(n^2) scan could not touch.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // 0 = the paper configuration (byte-identical output).
  const int vehicles = sh::bench::parse_vehicles_cli(argc, argv);
  return vehicles == 0 ? run_paper_scale() : run_city_scale(vehicles);
}

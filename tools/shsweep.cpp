// shsweep — deterministic parallel experiment sweeps from the command line.
//
// Fans a grid of (environment × mobility × placement-offset) points, each
// repeated over engine-derived seeds, across the exp::SweepRunner pool and
// writes sh.sweep.v1 JSON. The JSON is byte-identical at any --threads
// value (and contains no timing or host information), so
//
//   shsweep --threads 1 --out a.json && shsweep --threads 8 --out b.json
//   cmp a.json b.json
//
// is the end-to-end determinism check the test suite automates.
//
// Crash tolerance: --checkpoint journals every completed repetition into a
// sh.ckpt.v1 file (CRC-framed, fsync'd appends), and --resume replays the
// verified records instead of recomputing them — a killed run resumed at
// any thread count produces JSON byte-identical to an uninterrupted one
// (the kill-resume pin in tests/resume_test.cpp). A repetition that throws
// fails the sweep; its completed siblings are already journaled.
//
// Distributed execution: --shard K/N runs only the run indices with
// run_index % N == K (seeds are independent per run index, so shards never
// share state); --merge a.ckpt b.ckpt … validates the shard journals and
// replays their union into the same byte-identical JSON an uninterrupted
// single-host run writes; --supervise N forks one worker per shard and
// wraps it in bounded retry + deterministic backoff + a wall-clock
// watchdog, then merges in-process. A shard that exhausts its retries
// degrades the merge gracefully: the completed records still aggregate and
// the JSON carries an explicit incomplete_shards manifest (exit 3).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel/trace_cache.h"
#include "cli.h"
#include "exp/checkpoint.h"
#include "exp/distributed.h"
#include "exp/json.h"
#include "experiment_config.h"
#include "fault/fault_config.h"
#include "util/fsio.h"
#include "util/stats.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/traffic_sim.h"

using namespace sh;

namespace {

constexpr const char* kTool = "shsweep";

struct Options {
  int threads = 0;
  std::uint64_t base_seed = 1;
  int reps = 4;
  double duration_s = 10.0;
  int offsets = 8;
  std::vector<std::string> envs{"office", "hallway", "outdoor", "vehicular"};
  std::vector<std::string> mobility{"static", "mobile"};
  std::string out_path;
  std::string name = "shsweep";
  bool quiet = false;
  fault::FaultConfig fault;
  double hint_max_age_ms = 2000.0;
  /// Extra sweep dimension: one point per staleness watermark. Empty means
  /// the single --hint-max-age-ms value with unchanged labels and seeding.
  std::vector<double> hint_max_age_list;
  bool trace_cache = true;
  /// Non-empty switches shsweep into the VANET mode: one point per vehicle
  /// count, sweeping city-scale mobility + link statistics instead of the
  /// channel grid.
  std::vector<int> vanet_vehicles;
  // Crash tolerance.
  std::string checkpoint_path;
  std::string resume_path;
  // Distributed execution.
  cli::Shard shard;
  bool shard_set = false;
  std::vector<std::string> merge_paths;
  bool merge_allow_incomplete = false;
  int supervise = 0;
  int worker_retries = 3;
  double worker_timeout_s = 0.0;
  double backoff_ms = 200.0;
  // Test hooks, kept out of --help. --kill-after-records N raises SIGKILL
  // once N checkpoint records are durable (the kill-resume harness); the
  // shard hooks drive the distributed kill/hang harness under --supervise.
  std::uint64_t kill_after = 0;
  int kill_shard = -1;
  std::uint64_t kill_shard_records = 0;
  bool kill_shard_every = false;
  int stall_shard = -1;
  double stall_shard_s = 0.0;
  /// Worker-side test hook: sleep before doing anything, so the watchdog
  /// has a genuinely wedged process to kill.
  double stall_s = 0.0;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --threads N      worker threads (0 = hardware concurrency)\n"
      "  --base-seed S    base seed; run i uses derive_seed(S, i)\n"
      "  --reps R         repetitions per grid point (default 4)\n"
      "  --duration-s T   trace length in seconds (default 10)\n"
      "  --offsets K      placement offsets per (env, mobility) (default 8)\n"
      "  --envs LIST      comma list of office,hallway,outdoor,vehicular\n"
      "  --mobility LIST  comma list of static,mobile\n"
      "  --out FILE       write sh.sweep.v1 JSON results (atomic: tmp+rename)\n"
      "  --name NAME      sweep name recorded in the JSON\n"
      "  --quiet          no summary table on stdout\n"
      "  --fault KEY=VAL  set a fault field (repeatable); keys as in\n"
      "                   DESIGN.md, e.g. hint_drop_rate=0.5,\n"
      "                   hint_staleness_ms=3000\n"
      "  --hint-max-age-ms M\n"
      "                   staleness watermark for the hint-aware protocol\n"
      "                   when faults are active (default 2000)\n"
      "  --hint-max-age-list LIST\n"
      "                   comma list of watermarks; adds a sweep dimension\n"
      "                   (points vary only the protocol parameter, so the\n"
      "                   trace cache serves one generation per channel)\n"
      "  --trace-cache on|off\n"
      "                   memoize generated traces across sweep points\n"
      "                   (default on; results are identical either way)\n"
      "  --vanet-vehicles LIST\n"
      "                   comma list of vehicle counts; sweeps the city-scale\n"
      "                   VANET simulation (one point per count, labels\n"
      "                   vanet/v<N>) instead of the channel grid.\n"
      "                   --duration-s is simulated seconds per repetition;\n"
      "                   incompatible with --checkpoint/--resume/--fault\n"
      "                   and the distributed flags\n"
      "  --checkpoint FILE\n"
      "                   journal each completed repetition to a sh.ckpt.v1\n"
      "                   file; a killed run can be resumed from it\n"
      "  --resume FILE    replay the verified records of FILE, re-run only\n"
      "                   what is missing, and keep journaling to FILE;\n"
      "                   requires the same sweep flags as the killed run\n"
      "  --shard K/N      run only run indices with run_index %% N == K\n"
      "                   (0 <= K < N); the journal and partial output are\n"
      "                   shard-tagged, and N journals --merge back into the\n"
      "                   byte-identical single-host JSON\n"
      "  --merge FILE...  validate + merge shard journals (same grid flags\n"
      "                   as the shards!) and emit the single-host JSON;\n"
      "                   overlap, gaps, and config mismatch exit 2\n"
      "  --merge-allow-incomplete\n"
      "                   tolerate missing shards in --merge: aggregate what\n"
      "                   completed, record the rest in the JSON's\n"
      "                   incomplete_shards manifest, exit 3\n"
      "  --supervise N    fork N shard workers (one per --shard K/N slice),\n"
      "                   retry dead/hung ones with deterministic backoff,\n"
      "                   then merge in-process; requires --checkpoint BASE\n"
      "                   (per-shard journals land at BASE.shardK)\n"
      "  --worker-retries R\n"
      "                   worker launches per shard before giving up\n"
      "                   (default 3); retried workers resume their journal\n"
      "  --worker-timeout-s T\n"
      "                   wall-clock watchdog per worker attempt: a worker\n"
      "                   still running after T seconds is SIGKILLed and\n"
      "                   relaunched (0 = off)\n"
      "  --backoff-ms B   relaunch backoff base (default 200): attempt a\n"
      "                   waits B*2^(a-1) plus a deterministic jitter\n",
      argv0);
  std::exit(code);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

channel::Environment env_from_name(const std::string& name) {
  if (const auto env = channel::environment_from_name(name)) return *env;
  cli::fail(kTool, "--envs: unknown environment '" + name +
                       "' (expected office, hallway, outdoor, vehicular)");
}

/// Splits a "K:V" test-hook argument at the colon; both parts non-empty.
std::pair<std::string, std::string> split_colon(const char* flag,
                                                const char* text) {
  const char* colon = std::strchr(text, ':');
  if (colon == nullptr || colon == text || colon[1] == '\0') {
    cli::fail(kTool, std::string(flag) + ": expected K:V, got '" + text + "'");
  }
  return {std::string(text, colon), std::string(colon + 1)};
}

Options parse(int argc, char** argv) {
  Options o;
  // Every flag is single-shot except the two that accumulate; a silent
  // last-one-wins duplicate is now an exit-2 diagnostic.
  cli::FlagTracker tracker(kTool, {"--fault", "--merge"});
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* flag) {
      if (std::strcmp(argv[i], flag) != 0) return static_cast<const char*>(nullptr);
      tracker.note(flag);
      if (i + 1 >= argc) {
        cli::fail(kTool, std::string(flag) + ": missing value");
      }
      return static_cast<const char*>(argv[++i]);
    };
    // One `v` for the whole chain: a fresh declaration per `else if` arm
    // would shadow the previous one now that -Wshadow is an error.
    const char* v = nullptr;
    if ((v = arg("--threads")) != nullptr) {
      o.threads = static_cast<int>(cli::parse_int(kTool, "--threads", v, 0, 4096));
    } else if ((v = arg("--base-seed")) != nullptr) {
      o.base_seed = cli::parse_u64(kTool, "--base-seed", v);
    } else if ((v = arg("--reps")) != nullptr) {
      o.reps = static_cast<int>(cli::parse_int(kTool, "--reps", v, 1, 1000000));
    } else if ((v = arg("--duration-s")) != nullptr) {
      o.duration_s = cli::parse_double(kTool, "--duration-s", v, 1e-3, 1e5);
    } else if ((v = arg("--offsets")) != nullptr) {
      o.offsets = static_cast<int>(cli::parse_int(kTool, "--offsets", v, 1, 1000000));
    } else if ((v = arg("--envs")) != nullptr) {
      o.envs = split_csv(v);
      if (o.envs.empty()) {
        cli::fail(kTool, std::string("--envs: expected a non-empty comma list, got '") + v + "'");
      }
    } else if ((v = arg("--mobility")) != nullptr) {
      o.mobility = split_csv(v);
      if (o.mobility.empty()) {
        cli::fail(kTool, std::string("--mobility: expected a non-empty comma list, got '") + v + "'");
      }
      for (const auto& mob : o.mobility) {
        if (mob != "static" && mob != "mobile") {
          cli::fail(kTool, "--mobility: unknown mode '" + mob +
                               "' (expected static, mobile)");
        }
      }
    } else if ((v = arg("--out")) != nullptr) {
      o.out_path = v;
    } else if ((v = arg("--name")) != nullptr) {
      o.name = v;
    } else if ((v = arg("--fault")) != nullptr) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) {
        cli::fail(kTool, std::string("--fault: expected KEY=VAL, got '") + v + "'");
      }
      const std::string key(v, eq);
      const double val =
          cli::parse_double(kTool, "--fault", eq + 1, -1e12, 1e12);
      bool known = false;
      try {
        known = fault::set_fault_field(o.fault, key, val);
      } catch (const std::out_of_range& e) {
        cli::fail(kTool, std::string("--fault: ") + e.what());
      }
      if (!known) {
        cli::fail(kTool, "--fault: unknown key '" + key +
                             "' (see DESIGN.md \"Fault model\")");
      }
    } else if ((v = arg("--hint-max-age-ms")) != nullptr) {
      o.hint_max_age_ms = cli::parse_double(kTool, "--hint-max-age-ms", v, 0.0, 1e9);
    } else if ((v = arg("--hint-max-age-list")) != nullptr) {
      o.hint_max_age_list.clear();
      for (const auto& item : split_csv(v)) {
        o.hint_max_age_list.push_back(cli::parse_double(
            kTool, "--hint-max-age-list", item.c_str(), 0.0, 1e9));
      }
      if (o.hint_max_age_list.empty()) {
        cli::fail(kTool, std::string("--hint-max-age-list: expected a non-empty comma list, got '") + v + "'");
      }
    } else if ((v = arg("--trace-cache")) != nullptr) {
      if (std::strcmp(v, "on") == 0) {
        o.trace_cache = true;
      } else if (std::strcmp(v, "off") == 0) {
        o.trace_cache = false;
      } else {
        cli::fail(kTool, std::string("--trace-cache: expected 'on' or 'off', got '") + v + "'");
      }
    } else if ((v = arg("--vanet-vehicles")) != nullptr) {
      o.vanet_vehicles.clear();
      for (const auto& item : split_csv(v)) {
        o.vanet_vehicles.push_back(static_cast<int>(cli::parse_int(
            kTool, "--vanet-vehicles", item.c_str(), 1, 1000000)));
      }
      if (o.vanet_vehicles.empty()) {
        cli::fail(kTool, std::string("--vanet-vehicles: expected a non-empty "
                                     "comma list, got '") + v + "'");
      }
    } else if ((v = arg("--checkpoint")) != nullptr) {
      o.checkpoint_path = v;
    } else if ((v = arg("--resume")) != nullptr) {
      o.resume_path = v;
    } else if ((v = arg("--kill-after-records")) != nullptr) {
      // Test hook: SIGKILL after N durable checkpoint records.
      o.kill_after = cli::parse_u64(kTool, "--kill-after-records", v);
      if (o.kill_after == 0) {
        cli::fail(kTool, "--kill-after-records: value must be >= 1");
      }
    } else if ((v = arg("--shard")) != nullptr) {
      o.shard = cli::parse_shard(kTool, "--shard", v);
      o.shard_set = true;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      tracker.note("--merge");
      // Gobble every following non-flag argument as a journal path.
      std::size_t before = o.merge_paths.size();
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        o.merge_paths.emplace_back(argv[++i]);
      }
      if (o.merge_paths.size() == before) {
        cli::fail(kTool, "--merge: expected one or more checkpoint files");
      }
    } else if ((v = arg("--supervise")) != nullptr) {
      o.supervise = static_cast<int>(
          cli::parse_int(kTool, "--supervise", v, 1, 65535));
    } else if ((v = arg("--worker-retries")) != nullptr) {
      o.worker_retries = static_cast<int>(
          cli::parse_int(kTool, "--worker-retries", v, 1, 100));
    } else if ((v = arg("--worker-timeout-s")) != nullptr) {
      o.worker_timeout_s =
          cli::parse_double(kTool, "--worker-timeout-s", v, 0.0, 1e6);
    } else if ((v = arg("--backoff-ms")) != nullptr) {
      o.backoff_ms = cli::parse_double(kTool, "--backoff-ms", v, 0.0, 1e6);
    } else if ((v = arg("--kill-shard")) != nullptr ||
               (v = arg("--kill-shard-every")) != nullptr) {
      // Test hook: worker for shard K gets --kill-after-records N on its
      // first attempt (--kill-shard) or every attempt (--kill-shard-every,
      // which drives a shard to retry exhaustion with a durable prefix).
      const bool every = std::strcmp(argv[i - 1], "--kill-shard-every") == 0;
      const auto [k_text, n_text] = split_colon(
          every ? "--kill-shard-every" : "--kill-shard", v);
      o.kill_shard = static_cast<int>(cli::parse_int(
          kTool, "--kill-shard", k_text.c_str(), 0, 65534));
      o.kill_shard_records = cli::parse_u64(kTool, "--kill-shard", n_text.c_str());
      o.kill_shard_every = every;
      if (o.kill_shard_records == 0) {
        cli::fail(kTool, "--kill-shard: record count must be >= 1");
      }
    } else if ((v = arg("--stall-shard")) != nullptr) {
      // Test hook: worker for shard K gets --stall-s T on its first
      // attempt — a wedged process for the watchdog to kill.
      const auto [k_text, t_text] = split_colon("--stall-shard", v);
      o.stall_shard = static_cast<int>(cli::parse_int(
          kTool, "--stall-shard", k_text.c_str(), 0, 65534));
      o.stall_shard_s = cli::parse_double(
          kTool, "--stall-shard", t_text.c_str(), 1e-3, 3600.0);
    } else if ((v = arg("--stall-s")) != nullptr) {
      o.stall_s = cli::parse_double(kTool, "--stall-s", v, 0.0, 3600.0);
    } else if (std::strcmp(argv[i], "--merge-allow-incomplete") == 0) {
      tracker.note("--merge-allow-incomplete");
      o.merge_allow_incomplete = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      tracker.note("--quiet");
      o.quiet = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], 0);
    } else {
      cli::unknown_option(kTool, argv[i]);
    }
  }
  const bool merge_mode = !o.merge_paths.empty();
  const bool supervise_mode = o.supervise > 0;
  if (!o.resume_path.empty() && !o.checkpoint_path.empty() &&
      o.resume_path != o.checkpoint_path) {
    cli::fail(kTool,
              "--resume already journals to the resumed file; drop "
              "--checkpoint or point it at the same path");
  }
  if (merge_mode &&
      (o.shard_set || supervise_mode || !o.checkpoint_path.empty() ||
       !o.resume_path.empty() || o.kill_after > 0)) {
    cli::fail(kTool,
              "--merge only replays journals; drop "
              "--shard/--supervise/--checkpoint/--resume/--kill-after-records");
  }
  if (o.merge_allow_incomplete && !merge_mode) {
    cli::fail(kTool, "--merge-allow-incomplete: requires --merge");
  }
  if (supervise_mode) {
    if (o.checkpoint_path.empty()) {
      cli::fail(kTool,
                "--supervise: requires --checkpoint BASE (per-shard journals "
                "land at BASE.shardK)");
    }
    if (o.shard_set || !o.resume_path.empty() || o.kill_after > 0) {
      cli::fail(kTool,
                "--supervise drives whole-shard workers; drop "
                "--shard/--resume/--kill-after-records");
    }
    if (o.kill_shard >= o.supervise) {
      // kill_shard is -1 when unset, so only a real out-of-range K trips.
      if (o.kill_shard >= 0) {
        cli::fail(kTool, "--kill-shard: shard " + std::to_string(o.kill_shard) +
                             " out of range for --supervise " +
                             std::to_string(o.supervise));
      }
    }
    if (o.stall_shard >= o.supervise) {
      cli::fail(kTool, "--stall-shard: shard " + std::to_string(o.stall_shard) +
                           " out of range for --supervise " +
                           std::to_string(o.supervise));
    }
  } else if (o.kill_shard >= 0 || o.stall_shard >= 0) {
    cli::fail(kTool,
              "--kill-shard/--stall-shard are --supervise test hooks; add "
              "--supervise N");
  }
  if (!o.vanet_vehicles.empty() &&
      (!o.checkpoint_path.empty() || !o.resume_path.empty() ||
       o.shard_set || merge_mode || supervise_mode ||
       !o.fault.is_null())) {
    cli::fail(kTool,
              "--vanet-vehicles: checkpointing, fault injection, and "
              "distributed execution are not wired into the VANET mode; drop "
              "--checkpoint/--resume/--fault/--shard/--merge/--supervise");
  }
  return o;
}

/// Offsets cycle through the same -2..+2 dB placement grid the benches use.
double offset_db(int k) { return static_cast<double>(k % 5) - 2.0; }

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// The VANET mode: one sweep point per vehicle count, each repetition a
/// fresh city_for_scale simulation streamed through the spatial-hash
/// LinkTracker. Rides the same engine as the channel grid — repetition i of
/// point p draws its entire universe (vehicle streams, network) from
/// engine-derived seeds — so the JSON is byte-identical at any --threads.
int run_vanet_sweep(const Options& o) {
  // Networks are built once per point up front (read-only during the sweep;
  // a 100k-vehicle metro takes milliseconds but there is no reason to pay
  // it per repetition). The network seed derives from the vehicle count so
  // every point gets a distinct city at the same density.
  std::vector<exp::SweepPoint> points;
  std::vector<vanet::RoadNetwork> nets;
  for (const int vehicles : o.vanet_vehicles) {
    exp::SweepPoint point;
    point.label = "vanet/v" + std::to_string(vehicles);
    point.params = {
        {"vehicles", exp::json_number(static_cast<double>(vehicles))}};
    point.repetitions = o.reps;
    points.push_back(std::move(point));
    nets.push_back(vanet::RoadNetwork::city_for_scale(
        vehicles,
        util::Rng::derive_seed(o.base_seed,
                               static_cast<std::uint64_t>(vehicles))));
  }

  const Duration duration = seconds(o.duration_s);
  exp::SweepRunner runner({o.name, o.base_seed, o.threads});
  const auto result = runner.run(
      points, [&](const exp::SweepPoint&, const exp::RunContext& ctx) {
        const int vehicles = o.vanet_vehicles[ctx.point_index];
        vanet::TrafficSim::Params params;
        params.num_vehicles = vehicles;
        params.routing = vanet::TrafficSim::Routing::kFollowRoad;
        vanet::TrafficSim sim(nets[ctx.point_index], ctx.seed, params);
        // Streaming extraction: never hold the trajectory. Serial within a
        // repetition — the engine already parallelizes across repetitions.
        vanet::LinkTracker tracker(vanet::LinkTracker::Params{});
        Time now = 0;
        tracker.observe(now, sim.snapshot());
        for (Time t = 0; t < duration; t += kSecond) {
          sim.step();
          now += kSecond;
          tracker.observe(now, sim.snapshot());
        }
        const auto links = tracker.finish();
        util::Percentile durations;
        util::RunningStats mean_s;
        for (const auto& link : links) {
          durations.add(link.duration_s());
          mean_s.add(link.duration_s());
        }
        exp::MetricSample sample;
        sample.set("links", static_cast<double>(links.size()));
        sample.set("median_link_s", links.empty() ? 0.0 : durations.median());
        sample.set("mean_link_s", links.empty() ? 0.0 : mean_s.mean());
        sample.set("links_per_vehicle", static_cast<double>(links.size()) /
                                            static_cast<double>(vehicles));
        return sample;
      });

  if (!o.quiet) {
    util::Table table(
        {"point", "links", "median s", "mean s", "links/vehicle"});
    for (const auto& pr : result.points) {
      table.add_row({pr.point.label,
                     util::fmt(pr.metrics.summary("links").mean, 1),
                     util::fmt(pr.metrics.summary("median_link_s").mean, 2),
                     util::fmt(pr.metrics.summary("mean_link_s").mean, 2),
                     util::fmt(pr.metrics.summary("links_per_vehicle").mean, 3)});
    }
    table.print(std::cout);
  }
  if (!o.out_path.empty()) {
    if (!util::atomic_write_file(o.out_path, result.to_json())) {
      std::fprintf(stderr, "%s: cannot write %s\n", kTool, o.out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "[%s: %llu points, %llu runs, %d threads, %.2fs]\n",
               o.name.c_str(),
               static_cast<unsigned long long>(result.points.size()),
               static_cast<unsigned long long>(result.total_runs),
               runner.thread_count(), result.wall_seconds);
  return 0;
}

// ---------------------------------------------------------------------------
// Channel grid construction (shared by the run, merge, and supervise paths).

struct Cell {
  channel::Environment env;
  bool mobile;
  int offset;
  double hint_max_age_ms;
};

struct Grid {
  std::vector<exp::SweepPoint> points;
  std::vector<Cell> cells;
  std::vector<double> ages;
  std::uint64_t total = 0;
  std::uint64_t config_hash = 0;
};

Grid build_grid(const Options& o) {
  Grid grid;
  // The age list is the innermost (fastest-varying) dimension: the L age
  // variants of one channel cell are consecutive points, and the seeding
  // below maps all of them onto the same trace seeds — a parameter-only
  // sub-sweep the trace cache collapses to one generation per repetition.
  grid.ages = o.hint_max_age_list.empty()
                  ? std::vector<double>{o.hint_max_age_ms}
                  : o.hint_max_age_list;
  const bool age_dimension = !o.hint_max_age_list.empty();
  for (const auto& env_name : o.envs) {
    const auto env = env_from_name(env_name);
    for (const auto& mob : o.mobility) {
      const bool mobile = mob == "mobile";
      for (int k = 0; k < o.offsets; ++k) {
        for (const double age_ms : grid.ages) {
          exp::SweepPoint point;
          point.label = env_name + "/" + mob + "/offset" + std::to_string(k);
          point.params = {{"environment", env_name},
                          {"mobility", mob},
                          {"offset_db", exp::json_number(offset_db(k))}};
          // The age suffix and parameter appear only when the dimension was
          // requested, so a default sweep's JSON is byte-identical to builds
          // that predate --hint-max-age-list. Same pattern as faults below.
          if (age_dimension) {
            point.label += "/age" + std::to_string(static_cast<long long>(age_ms));
            point.params.push_back(
                {"hint_max_age_ms", exp::json_number(age_ms)});
          }
          // Only non-default fault fields are emitted, so a fault-free
          // sweep's JSON is byte-identical to builds that predate fault
          // injection.
          for (auto& kv : fault::fault_params(o.fault)) {
            point.params.push_back(std::move(kv));
          }
          point.repetitions = o.reps;
          grid.points.push_back(std::move(point));
          grid.cells.push_back(Cell{env, mobile, k, age_ms});
        }
      }
    }
  }
  // The journal binds to everything that determines results: the grid
  // (hashed from the points) plus the two knobs that shape runs without
  // appearing in point params. Threads and cache mode are excluded — they
  // never change output, so a checkpoint may be resumed under either.
  grid.total = exp::total_run_count(grid.points);
  const std::uint64_t config_extra = util::Rng::derive_seed(
      double_bits(o.duration_s), double_bits(o.hint_max_age_ms));
  grid.config_hash =
      exp::sweep_config_hash(grid.points, o.base_seed, config_extra);
  return grid;
}

/// One repetition of the channel sweep. Captures `o` and `grid` by
/// reference; both outlive every runner.run() call in this file.
exp::RunFn make_channel_run_fn(const Options& o, const Grid& grid) {
  const Duration duration = seconds(o.duration_s);
  return [&o, &grid, duration](const exp::SweepPoint&,
                               const exp::RunContext& ctx) {
    const Cell& cell = grid.cells[ctx.point_index];
    channel::TraceGeneratorConfig cfg;
    cfg.env = cell.env;
    if (!cell.mobile) {
      cfg.scenario = sim::MobilityScenario::all_static(duration);
    } else if (cell.env == channel::Environment::kVehicular) {
      cfg.scenario = sim::MobilityScenario::all_vehicle(duration);
    } else {
      cfg.scenario = sim::MobilityScenario::all_walking(duration);
    }
    // Trace seeds are a function of the *channel cell*, not the point:
    // all age variants of a cell replay the same run-index sequence, so
    // their trace configs are identical and the cache serves them from
    // one generation. With no age dimension (L = 1) this reduces to
    // exactly ctx.seed / ctx.fault_seed — byte-identical legacy output.
    const std::uint64_t trace_run_index =
        (ctx.point_index / grid.ages.size()) *
            static_cast<std::uint64_t>(o.reps) +
        static_cast<std::uint64_t>(ctx.repetition);
    cfg.seed = util::Rng::derive_seed(o.base_seed, trace_run_index);
    cfg.snr_offset_db = offset_db(cell.offset);
    const auto trace_ptr =
        o.trace_cache ? channel::generate_trace_cached(cfg)
                      : std::make_shared<const channel::PacketFateTrace>(
                            channel::generate_trace(cfg));
    const channel::PacketFateTrace& trace = *trace_ptr;
    rate::RunConfig run;
    run.workload = rate::Workload::kTcp;
    // With faults, the hint-aware protocol hears ground truth through a
    // MovementFeed seeded from the fault seed.
    const std::uint64_t fault_seed =
        util::Rng::derive_seed(cfg.seed, exp::kFaultSeedStream);
    auto sample = bench::protocol_metrics(
        trace, run,
        bench::faulty_truth_query(trace, o.fault, fault_seed,
                                  seconds(cell.hint_max_age_ms / 1000.0)));
    sample.set("delivery_6m", trace.delivery_ratio(mac::slowest_rate()));
    return sample;
  };
}

void print_channel_table(const exp::SweepResult& result) {
  util::Table table({"point", "hint Mbps", "rapid Mbps", "sample Mbps",
                     "delivery 6M"});
  for (const auto& pr : result.points) {
    const auto hint = pr.metrics.summary("hint_mbps");
    table.add_row({pr.point.label, util::fmt_pm(hint.mean, hint.ci95, 2),
                   util::fmt(pr.metrics.summary("rapid_mbps").mean, 2),
                   util::fmt(pr.metrics.summary("sample_mbps").mean, 2),
                   util::fmt(pr.metrics.summary("delivery_6m").mean, 3)});
  }
  table.print(std::cout);
}

// ---------------------------------------------------------------------------
// Merge mode: validate shard journals, replay their union, emit the same
// JSON an uninterrupted single-host run writes.

int emit_merged(const Options& o, const Grid& grid,
                const std::vector<std::string>& paths, bool allow_incomplete) {
  exp::ShardMergeOptions mopts;
  mopts.expected_config_hash = grid.config_hash;
  mopts.total_runs = grid.total;
  mopts.allow_incomplete = allow_incomplete;
  const exp::ShardMergeResult merged = exp::merge_checkpoints(paths, mopts);
  if (!merged.ok) {
    cli::fail(kTool, "--merge: " + merged.error);
  }

  exp::RunOptions ropts;
  ropts.resume = &merged.records;
  ropts.replay_only = true;

  // Replay-only: the run function never executes, but the runner still
  // aggregates in run-index order and serializes — the single source of
  // byte-identical output.
  exp::SweepRunner runner({o.name, o.base_seed, o.threads});
  auto result = runner.run(grid.points, make_channel_run_fn(o, grid), ropts);
  result.incomplete_shards = merged.incomplete;

  if (!o.quiet) print_channel_table(result);
  if (!o.out_path.empty()) {
    if (!util::atomic_write_file(o.out_path, result.to_json())) {
      std::fprintf(stderr, "%s: cannot write %s\n", kTool, o.out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "[merge: %llu journal(s), %llu record(s), %llu of %llu runs "
               "covered]\n",
               static_cast<unsigned long long>(paths.size()),
               static_cast<unsigned long long>(merged.records.size()),
               static_cast<unsigned long long>(grid.total -
                                               merged.missing_total),
               static_cast<unsigned long long>(grid.total));
  if (!merged.incomplete.empty()) {
    for (const auto& inc : merged.incomplete) {
      std::fprintf(stderr,
                   "[merge: INCOMPLETE shard %d/%d — %llu run(s) missing]\n",
                   inc.shard, inc.of,
                   static_cast<unsigned long long>(inc.missing_runs));
    }
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Supervise mode: fork one worker per shard, retry/restart under the
// process supervisor, merge in-process.

bool file_exists(const std::string& path) {
  std::ifstream is(path);
  return is.good();
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ::ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len > 0) return std::string(buf, static_cast<std::size_t>(len));
  return argv0;
}

/// Original argv minus the supervisor-only flags — everything that shapes
/// results passes through to workers verbatim, so worker grids (and config
/// hashes) match the supervisor's by construction.
std::vector<std::string> worker_base_args(int argc, char** argv) {
  struct Strip {
    const char* flag;
    int arity;
  };
  static constexpr Strip kStrip[] = {
      {"--supervise", 1},        {"--worker-retries", 1},
      {"--worker-timeout-s", 1}, {"--backoff-ms", 1},
      {"--kill-shard", 1},       {"--kill-shard-every", 1},
      {"--stall-shard", 1},      {"--checkpoint", 1},
      {"--out", 1},              {"--quiet", 0},
  };
  std::vector<std::string> base;
  for (int i = 1; i < argc; ++i) {
    bool stripped = false;
    for (const auto& s : kStrip) {
      if (std::strcmp(argv[i], s.flag) == 0) {
        i += s.arity;
        stripped = true;
        break;
      }
    }
    if (!stripped) base.emplace_back(argv[i]);
  }
  return base;
}

int run_supervised(const Options& o, const Grid& grid, int argc, char** argv) {
  const int n = o.supervise;
  const std::string exe = self_exe_path(argv[0]);
  const std::vector<std::string> base = worker_base_args(argc, argv);
  const auto shard_journal = [&](int k) {
    return o.checkpoint_path + ".shard" + std::to_string(k);
  };

  const auto argv_for = [&](int shard, int attempt) {
    std::vector<std::string> av;
    av.push_back(exe);
    av.insert(av.end(), base.begin(), base.end());
    av.emplace_back("--quiet");
    av.emplace_back("--shard");
    av.push_back(std::to_string(shard) + "/" + std::to_string(n));
    // Resume the shard's own journal when it exists and matches this grid
    // (that is exactly the kill-resume contract); otherwise start fresh.
    // A stale journal from a different configuration is overwritten rather
    // than resumed — the worker would refuse it with exit 2 otherwise.
    const std::string ck = shard_journal(shard);
    bool resume = false;
    if (file_exists(ck)) {
      const exp::CheckpointLoad probe = exp::load_checkpoint(ck);
      resume = probe.ok && probe.header.config_hash == grid.config_hash &&
               probe.header.shard_count == n &&
               probe.header.shard_index == shard;
    }
    av.emplace_back(resume ? "--resume" : "--checkpoint");
    av.push_back(ck);
    if (shard == o.kill_shard && (attempt == 0 || o.kill_shard_every)) {
      av.emplace_back("--kill-after-records");
      av.push_back(std::to_string(o.kill_shard_records));
    }
    if (shard == o.stall_shard && attempt == 0) {
      av.emplace_back("--stall-s");
      av.push_back(exp::json_number(o.stall_shard_s));
    }
    return av;
  };

  exp::SuperviseOptions sopts;
  sopts.shards = n;
  sopts.max_attempts = o.worker_retries;
  sopts.worker_timeout_s = o.worker_timeout_s;
  sopts.backoff_ms = o.backoff_ms;
  sopts.seed = o.base_seed;
  const std::vector<exp::ShardStatus> statuses =
      exp::supervise_shards(sopts, argv_for);

  bool any_exhausted = false;
  for (const auto& st : statuses) {
    std::string detail;
    if (st.crashes > 0) {
      detail += ", crashed x" + std::to_string(st.crashes);
    }
    if (st.timeouts > 0) {
      detail += ", timed out x" + std::to_string(st.timeouts);
    }
    if (st.exits > 0) {
      detail += ", exited x" + std::to_string(st.exits);
    }
    if (st.completed) {
      std::fprintf(stderr, "[supervise: shard %d/%d ok (%d attempt(s)%s)]\n",
                   st.shard, n, st.attempts, detail.c_str());
    } else {
      any_exhausted = true;
      std::fprintf(stderr,
                   "[supervise: shard %d/%d EXHAUSTED after %d attempt(s)%s; "
                   "last outcome: %s]\n",
                   st.shard, n, st.attempts, detail.c_str(),
                   exp::worker_outcome_name(st.last));
    }
  }

  // Merge whatever journals exist. An exhausted shard contributes its
  // durable prefix; a shard whose worker never created a journal is a pure
  // coverage gap. Either way the merge degrades explicitly, never silently.
  std::vector<std::string> paths;
  for (int k = 0; k < n; ++k) {
    if (file_exists(shard_journal(k))) paths.push_back(shard_journal(k));
  }
  if (paths.empty()) {
    std::fprintf(stderr, "%s: --supervise: no shard journal was ever written\n",
                 kTool);
    return 1;
  }
  return emit_merged(o, grid, paths, /*allow_incomplete=*/any_exhausted);
}

// ---------------------------------------------------------------------------
// Single-process channel sweep (optionally one shard of a fleet).

int run_channel_sweep(const Options& o, const Grid& grid) {
  exp::RunOptions ropts;
  exp::CheckpointLoad load;
  exp::CheckpointWriter journal;
  const std::uint16_t want_shard_count =
      o.shard_set ? static_cast<std::uint16_t>(o.shard.count) : 0;
  const std::uint16_t want_shard_index =
      o.shard_set ? static_cast<std::uint16_t>(o.shard.index) : 0;
  if (!o.resume_path.empty()) {
    load = exp::load_checkpoint(o.resume_path);
    if (!load.ok) {
      cli::fail(kTool, "--resume: " + o.resume_path + ": " + load.error);
    }
    if (load.header.config_hash != grid.config_hash) {
      cli::fail(kTool, "--resume: checkpoint '" + o.resume_path +
                           "' was written by a different sweep configuration "
                           "(config hash mismatch); rerun with the original "
                           "flags or start a fresh --checkpoint");
    }
    if (load.header.shard_count != want_shard_count ||
        load.header.shard_index != want_shard_index) {
      const std::string theirs =
          load.header.shard_count == 0
              ? std::string("an unsharded run")
              : "shard " + std::to_string(load.header.shard_index) + "/" +
                    std::to_string(load.header.shard_count);
      cli::fail(kTool, "--resume: checkpoint '" + o.resume_path +
                           "' was written by " + theirs +
                           "; rerun with the matching --shard flag");
    }
    if (load.truncated) {
      std::fprintf(stderr,
                   "[resume: dropped %llu corrupt tail byte(s); interrupted "
                   "repetitions will re-run]\n",
                   static_cast<unsigned long long>(load.dropped_bytes));
    }
    std::fprintf(stderr, "[resume: replaying %llu of %llu repetitions from %s]\n",
                 static_cast<unsigned long long>(load.records.size()),
                 static_cast<unsigned long long>(grid.total),
                 o.resume_path.c_str());
    if (!journal.open_resumed(o.resume_path, load.valid_bytes)) {
      std::fprintf(stderr, "%s: cannot reopen checkpoint '%s' for append\n",
                   kTool, o.resume_path.c_str());
      return 1;
    }
    ropts.resume = &load.records;
    ropts.journal = &journal;
  } else if (!o.checkpoint_path.empty()) {
    exp::CheckpointHeader header;
    header.config_hash = grid.config_hash;
    header.base_seed = o.base_seed;
    header.total_runs = grid.total;
    header.shard_index = want_shard_index;
    header.shard_count = want_shard_count;
    if (!journal.create(o.checkpoint_path, header)) {
      std::fprintf(stderr, "%s: cannot create checkpoint '%s'\n", kTool,
                   o.checkpoint_path.c_str());
      return 1;
    }
    ropts.journal = &journal;
  }
  if (journal.is_open() && o.kill_after > 0) {
    journal.set_kill_after(o.kill_after);
  }

  if (o.shard_set) {
    ropts.shard_index = o.shard.index;
    ropts.shard_count = o.shard.count;
  }

  // A multi-shard partial output tags its name so it can never be mistaken
  // for (or byte-compared against) the merged whole; 0/1 covers the full
  // grid and stays untagged.
  std::string run_name = o.name;
  if (o.shard_set && o.shard.count > 1) {
    run_name += "#shard" + std::to_string(o.shard.index) + "/" +
                std::to_string(o.shard.count);
  }
  exp::SweepRunner runner({run_name, o.base_seed, o.threads});
  const auto result =
      runner.run(grid.points, make_channel_run_fn(o, grid), ropts);

  if (!o.quiet) print_channel_table(result);
  if (!o.out_path.empty()) {
    if (!util::atomic_write_file(o.out_path, result.to_json())) {
      std::fprintf(stderr, "%s: cannot write %s\n", kTool, o.out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "[%s: %llu points, %llu runs, %d threads, %.2fs]\n",
               run_name.c_str(),
               static_cast<unsigned long long>(result.points.size()),
               static_cast<unsigned long long>(result.total_runs),
               runner.thread_count(), result.wall_seconds);
  if (o.trace_cache) {
    // stderr only: cache effectiveness is host/scheduling-dependent and must
    // never leak into the byte-compared JSON or the stdout table.
    const auto cs = channel::global_trace_cache().stats();
    std::fprintf(stderr,
                 "[trace cache: %llu hits, %llu misses, %llu evictions, "
                 "%.1f KiB resident]\n",
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions),
                 static_cast<double>(cs.resident_bytes) / 1024.0);
  }
  if (journal.is_open()) {
    std::fprintf(stderr, "[checkpoint: %llu record(s) appended%s]\n",
                 static_cast<unsigned long long>(journal.records_appended()),
                 journal.write_failed()
                     ? "; WRITE FAILED — journal is incomplete"
                     : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.stall_s > 0.0) {
    // Test hook: a wedged worker in miniature. Pure wall-clock sleep —
    // nothing downstream observes it, the watchdog just gets something to
    // kill. (std::this_thread::sleep_for; no banned clock is read.)
    std::this_thread::sleep_for(std::chrono::duration<double>(o.stall_s));
  }
  if (!o.vanet_vehicles.empty()) return run_vanet_sweep(o);

  const Grid grid = build_grid(o);
  if (!o.merge_paths.empty()) {
    return emit_merged(o, grid, o.merge_paths, o.merge_allow_incomplete);
  }
  if (o.supervise > 0) {
    return run_supervised(o, grid, argc, argv);
  }
  return run_channel_sweep(o, grid);
}

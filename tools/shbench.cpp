// shbench — microbenchmark driver for the trace-generation hot path.
//
// Measures the three tiers the sweep engine spends its time in — trace
// generation (cold and cache-provisioned), whole sweep points, and single
// adapter steps — and writes "sh.bench.v1" JSON for the CI perf-regression
// gate:
//
//   shbench --smoke --out BENCH_trace.json       # measure
//   shbench --check BENCH_baseline.json BENCH_trace.json
//
// --check exits 0 when comparable and within tolerance, 3 when a benchmark's
// median ns/op regressed by more than 15% (CI warns), and 2 when the files
// are not comparable at all — schema, smoke mode, benchmark set, or workload
// config hash mismatch (CI fails hard: comparing different workloads is not
// a perf signal, it is a bug in the harness).
//
// Timing is the one sanctioned nondeterminism in this binary: wall-clock
// readings feed ns/op numbers only, never experiment output, so each
// steady_clock site carries an inline shlint:allow(D1).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "channel/trace_cache.h"
#include "cli.h"
#include "exp/json.h"
#include "exp/thread_pool.h"
#include "experiment_config.h"
#include "util/fsio.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/traffic_sim.h"

using namespace sh;

namespace {

constexpr const char* kTool = "shbench";

struct Options {
  int reps = 5;
  int warmup = 1;
  bool smoke = false;
  bool list = false;
  std::string filter;
  std::string exclude;
  std::string out_path;
  std::string check_baseline;
  std::string check_current;
  /// Benchmarks whose name contains this substring hard-fail --check (rc 2,
  /// not the advisory rc 3) when they regress: CI treats a block-kernel
  /// slowdown as a broken build, not a flaky-timer warning.
  std::string check_hard;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --reps N          timed repetitions per benchmark (default 5)\n"
      "  --warmup N        untimed warmup repetitions (default 1)\n"
      "  --filter SUBSTR   run only benchmarks whose name contains SUBSTR\n"
      "  --exclude SUBSTR  skip benchmarks whose name contains SUBSTR\n"
      "  --smoke           shrunk workloads for CI (baseline must match)\n"
      "  --list            print benchmark names and exit\n"
      "  --out FILE        write sh.bench.v1 JSON results\n"
      "  --check BASE CUR  compare two result files instead of running;\n"
      "                    exit 0 ok, 2 not comparable (schema/name set/\n"
      "                    config hash/smoke mismatch), 3 ns/op regression\n"
      "                    beyond 15%%\n"
      "  --check-hard SUBSTR  with --check: a regression in a benchmark whose\n"
      "                    name contains SUBSTR exits 2 (hard failure)\n"
      "                    instead of 3\n",
      argv0);
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  // No shbench flag is meaningfully repeatable; a duplicate is always an
  // operator mistake (usually a mangled shell history) and exits 2.
  cli::FlagTracker tracker(kTool);
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* flag) {
      if (std::strcmp(argv[i], flag) != 0) return static_cast<const char*>(nullptr);
      tracker.note(flag);
      if (i + 1 >= argc) {
        cli::fail(kTool, std::string(flag) + ": missing value");
      }
      return static_cast<const char*>(argv[++i]);
    };
    const char* v = nullptr;
    if ((v = arg("--reps")) != nullptr) {
      o.reps = static_cast<int>(cli::parse_int(kTool, "--reps", v, 1, 1000000));
    } else if ((v = arg("--warmup")) != nullptr) {
      o.warmup = static_cast<int>(cli::parse_int(kTool, "--warmup", v, 0, 1000000));
    } else if ((v = arg("--filter")) != nullptr) {
      o.filter = v;
    } else if ((v = arg("--exclude")) != nullptr) {
      o.exclude = v;
    } else if ((v = arg("--out")) != nullptr) {
      o.out_path = v;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      tracker.note("--check");
      if (i + 2 >= argc) {
        cli::fail(kTool, "--check: expected two arguments (BASE CUR)");
      }
      o.check_baseline = argv[++i];
      o.check_current = argv[++i];
    } else if ((v = arg("--check-hard")) != nullptr) {
      o.check_hard = v;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      tracker.note("--smoke");
      o.smoke = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      tracker.note("--list");
      o.list = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], 0);
    } else {
      cli::unknown_option(kTool, argv[i]);
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// Measurement scaffolding

double now_ns() {
  const auto t = std::chrono::steady_clock::now();  // shlint:allow(D1) ns/op timing only
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// Keeps benchmark results observable so the loops cannot be optimized out.
/// Written only between timed repetitions, never read into a result.
volatile double g_sink = 0.0;  // shlint:allow(T1)

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct BenchResult {
  double ns_op = 0.0;       ///< Median over reps.
  double slots_per_s = 0.0; ///< 0 when the op is not slot-shaped.
  std::uint64_t config_hash = 0;  ///< Workload identity; 0 when n/a.
};

struct BenchDef {
  std::string name;
  std::function<BenchResult(const Options&)> fn;
};

/// Times `op` (which must touch g_sink) warmup+reps times and reduces to
/// the median; `ops_per_rep` converts a rep's wall time into ns/op.
BenchResult measure(const Options& o, double ops_per_rep,
                    const std::function<void()>& op) {
  for (int i = 0; i < o.warmup; ++i) op();
  std::vector<double> ns_op;
  ns_op.reserve(static_cast<std::size_t>(o.reps));
  for (int i = 0; i < o.reps; ++i) {
    const double t0 = now_ns();
    op();
    ns_op.push_back((now_ns() - t0) / ops_per_rep);
  }
  BenchResult r;
  r.ns_op = median(std::move(ns_op));
  if (r.ns_op > 0.0) r.slots_per_s = 1e9 / r.ns_op;
  return r;
}

// ---------------------------------------------------------------------------
// Workloads

channel::TraceGeneratorConfig trace_cfg(channel::Environment env, bool mobile,
                                        double duration_s) {
  channel::TraceGeneratorConfig cfg;
  cfg.env = env;
  const Duration d = seconds(duration_s);
  if (!mobile) {
    cfg.scenario = sim::MobilityScenario::all_static(d);
  } else if (env == channel::Environment::kVehicular) {
    cfg.scenario = sim::MobilityScenario::all_vehicle(d);
  } else {
    cfg.scenario = sim::MobilityScenario::all_walking(d);
  }
  cfg.seed = 1;
  return cfg;
}

double trace_seconds(const Options& o) { return o.smoke ? 2.0 : 20.0; }

/// The headline: provisioning a parameter-only sweep. W points share one
/// channel config (the common shsweep study — one channel, many protocol
/// settings); each rep starts from a cold cache, so the measured cost is
/// one generation plus W-1 hits, exactly what the sweep engine pays.
BenchResult bench_sweep_provisioning(const Options& o) {
  const auto cfg = trace_cfg(channel::Environment::kOffice, true, trace_seconds(o));
  constexpr int kPoints = 4;
  const double slots = static_cast<double>(generate_trace(cfg).size());
  auto r = measure(o, slots * kPoints, [&cfg] {
    channel::TraceCache cache(8);
    double acc = 0.0;
    for (int p = 0; p < kPoints; ++p) {
      acc += cache.get_or_generate(cfg)->delivery_ratio(0);
    }
    g_sink = acc;
  });
  r.config_hash = channel::trace_config_hash(cfg);
  return r;
}

BenchResult bench_trace_gen_cold(const Options& o, channel::Environment env,
                                 bool mobile) {
  const auto cfg = trace_cfg(env, mobile, trace_seconds(o));
  const double slots = static_cast<double>(generate_trace(cfg).size());
  auto r = measure(o, slots, [&cfg] {
    g_sink = channel::generate_trace(cfg).delivery_ratio(0);
  });
  r.config_hash = channel::trace_config_hash(cfg);
  return r;
}

/// The block kernel measured directly: generate_trace_block at the default
/// block size. Its output is bit-identical to trace_gen_cold's — the
/// separate name exists so CI can hard-gate the kernel with --check-hard
/// trace_gen_block while the rest of the suite stays advisory.
BenchResult bench_trace_gen_block(const Options& o, channel::Environment env,
                                  bool mobile) {
  const auto cfg = trace_cfg(env, mobile, trace_seconds(o));
  const double slots = static_cast<double>(
      channel::generate_trace_block(cfg, channel::kDefaultTraceBlockSlots)
          .size());
  auto r = measure(o, slots, [&cfg] {
    g_sink = channel::generate_trace_block(cfg, channel::kDefaultTraceBlockSlots)
                 .delivery_ratio(0);
  });
  r.config_hash = channel::trace_config_hash(cfg);
  return r;
}

/// Whole sweep points through the engine: trace generation plus every
/// protocol adapter, the unit shsweep parallelizes. ns/op is per run.
BenchResult bench_sweep_points(const Options& o) {
  const double duration_s = o.smoke ? 1.0 : 4.0;
  const int kRuns = 2;
  auto r = measure(o, kRuns, [duration_s] {
    std::vector<exp::SweepPoint> points;
    for (int k = 0; k < kRuns; ++k) {
      exp::SweepPoint p;
      p.label = "office/mobile/offset" + std::to_string(k);
      p.repetitions = 1;
      points.push_back(p);
    }
    exp::SweepRunner runner({"shbench", 1, 1});
    const auto result = runner.run(
        points, [duration_s](const exp::SweepPoint&, const exp::RunContext& ctx) {
          auto cfg = trace_cfg(channel::Environment::kOffice, true, duration_s);
          cfg.seed = ctx.seed;
          const auto trace = channel::generate_trace(cfg);
          rate::RunConfig run;
          run.workload = rate::Workload::kTcp;
          return bench::protocol_metrics(trace, run,
                                         bench::lagged_truth_query(trace));
        });
    g_sink = result.summary("office/mobile/offset0", "hint_mbps").mean;
  });
  r.slots_per_s = 0.0;  // Runs, not slots; the rate axis is meaningless here.
  return r;
}

BenchResult bench_adapter_step(const Options& o, const std::string& which) {
  const auto cfg =
      trace_cfg(channel::Environment::kOffice, true, o.smoke ? 2.0 : 10.0);
  const auto trace = channel::generate_trace(cfg);
  rate::RunConfig run;
  run.workload = rate::Workload::kTcp;
  const double slots = static_cast<double>(trace.size());
  auto r = measure(o, slots, [&which, &trace, &run] {
    if (which == "hint_aware") {
      rate::HintAwareRateAdapter adapter(bench::lagged_truth_query(trace),
                                         util::Rng(42));
      g_sink = rate::run_trace(adapter, trace, run).throughput_mbps;
    } else if (which == "rapid_sample") {
      rate::RapidSample adapter;
      g_sink = rate::run_trace(adapter, trace, run).throughput_mbps;
    } else if (which == "sample_rate") {
      rate::SampleRateAdapter::Params params;
      params.window = seconds(5.0);
      rate::SampleRateAdapter adapter(params, util::Rng(42));
      g_sink = rate::run_trace(adapter, trace, run).throughput_mbps;
    } else {
      rate::Rraa adapter;
      g_sink = rate::run_trace(adapter, trace, run).throughput_mbps;
    }
  });
  r.config_hash = channel::trace_config_hash(cfg);
  return r;
}

/// City-scale VANET stepping: one op = one vehicle advanced one simulated
/// second AND scanned for proximity links. The hash variants run the
/// production path — sharded TrafficSim::step plus the SpatialHash-backed
/// streaming LinkTracker over a thread pool — while the brute variant is the
/// pre-spatial-hash architecture (serial step, O(n²) all-pairs scan), kept
/// as the speedup yardstick. The two are separate benchmark names, never
/// compared by --check; the ≥20x hash-over-brute claim is checked by eye
/// (and by the acceptance run), not by the regression gate.
BenchResult bench_vanet_step(const Options& o, int vehicles, bool brute) {
  // Steps per rep: enough to amortize snapshot allocation, small enough to
  // keep the 100k and brute variants inside a CI minute.
  int steps = 0;
  if (brute) {
    steps = o.smoke ? 1 : 3;
  } else if (vehicles >= 100000) {
    steps = o.smoke ? 2 : 5;
  } else if (vehicles >= 10000) {
    steps = o.smoke ? 5 : 20;
  } else {
    steps = o.smoke ? 20 : 100;
  }
  const auto net = vanet::RoadNetwork::city_for_scale(vehicles, 1);
  vanet::TrafficSim::Params params;
  params.num_vehicles = vehicles;
  params.routing = vanet::TrafficSim::Routing::kFollowRoad;
  vanet::TrafficSim sim(net, 1, params);
  exp::ThreadPool pool;  // hardware concurrency
  vanet::LinkTracker tracker(vanet::LinkTracker::Params{}, &pool);
  Time now = 0;
  auto r = measure(
      o, static_cast<double>(vehicles) * steps, [&sim, &pool, &tracker, &now,
                                                 steps, brute] {
        for (int s = 0; s < steps; ++s) {
          if (brute) {
            sim.step();
            const auto snap = sim.snapshot();
            std::size_t pairs = 0;
            const std::size_t n = snap.size();
            for (std::size_t a = 0; a < n; ++a) {
              for (std::size_t b = a + 1; b < n; ++b) {
                if (vanet::distance(snap[a].position, snap[b].position) <=
                    100.0) {
                  ++pairs;
                }
              }
            }
            g_sink = static_cast<double>(pairs);
          } else {
            sim.step(pool);
            tracker.observe(now, sim.snapshot());
            g_sink = static_cast<double>(tracker.active_links());
          }
          now += kSecond;
        }
      });
  // Workload identity: the sizing knobs, chained through the same splitmix
  // finalizer the sweep engine uses for seed derivation.
  std::uint64_t h = util::Rng::derive_seed(
      0x76616e6574ULL, static_cast<std::uint64_t>(vehicles));
  h = util::Rng::derive_seed(h, static_cast<std::uint64_t>(steps));
  r.config_hash = util::Rng::derive_seed(h, brute ? 1ULL : 0ULL);
  return r;
}

std::vector<BenchDef> all_benchmarks() {
  using channel::Environment;
  std::vector<BenchDef> defs;
  defs.push_back({"trace_gen/office/mobile", bench_sweep_provisioning});
  defs.push_back({"trace_gen_cold/office/static", [](const Options& o) {
                    return bench_trace_gen_cold(o, Environment::kOffice, false);
                  }});
  defs.push_back({"trace_gen_cold/office/mobile", [](const Options& o) {
                    return bench_trace_gen_cold(o, Environment::kOffice, true);
                  }});
  defs.push_back({"trace_gen_cold/vehicular/mobile", [](const Options& o) {
                    return bench_trace_gen_cold(o, Environment::kVehicular, true);
                  }});
  defs.push_back({"trace_gen_block/office/static", [](const Options& o) {
                    return bench_trace_gen_block(o, Environment::kOffice, false);
                  }});
  defs.push_back({"trace_gen_block/office/mobile", [](const Options& o) {
                    return bench_trace_gen_block(o, Environment::kOffice, true);
                  }});
  defs.push_back({"trace_gen_block/vehicular/mobile", [](const Options& o) {
                    return bench_trace_gen_block(o, Environment::kVehicular,
                                                 true);
                  }});
  defs.push_back({"sweep_points/office", bench_sweep_points});
  for (const char* adapter :
       {"hint_aware", "rapid_sample", "sample_rate", "rraa"}) {
    defs.push_back({std::string("adapter_step/") + adapter,
                    [adapter](const Options& o) {
                      return bench_adapter_step(o, adapter);
                    }});
  }
  for (const int vehicles : {1000, 10000, 100000}) {
    defs.push_back(
        {"vanet_step/hash/" + std::to_string(vehicles / 1000) + "k",
         [vehicles](const Options& o) {
           return bench_vanet_step(o, vehicles, /*brute=*/false);
         }});
  }
  defs.push_back({"vanet_step/brute/10k", [](const Options& o) {
                    return bench_vanet_step(o, 10000, /*brute=*/true);
                  }});
  return defs;
}

// ---------------------------------------------------------------------------
// sh.bench.v1 serialization and the --check comparator

struct NamedResult {
  std::string name;
  int reps = 0;
  BenchResult result;
};

void write_results(std::ostream& os, const Options& o,
                   const std::vector<NamedResult>& results) {
  exp::JsonWriter w(os);
  w.begin_object();
  w.member("schema", "sh.bench.v1");
  w.member("smoke", o.smoke);
  w.key("benchmarks");
  w.begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.member("name", r.name);
    w.member("reps", static_cast<std::int64_t>(r.reps));
    w.member("ns_op", r.result.ns_op);
    w.member("slots_per_s", r.result.slots_per_s);
    w.member("config_hash", r.result.config_hash);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

struct ParsedFile {
  bool readable = false;  ///< The file opened at all.
  bool ok = false;        ///< ... and contained at least one benchmark entry.
  std::string schema;
  bool smoke = false;
  std::map<std::string, NamedResult> entries;
};

/// Tolerant line-oriented extractor for sh.bench.v1 files. The repo has no
/// JSON parser and does not need one: the writer above emits one member per
/// line, and --check only ever reads files shbench itself wrote.
ParsedFile parse_bench_file(const std::string& path) {
  ParsedFile out;
  std::ifstream is(path);
  if (!is) return out;
  out.readable = true;
  const auto string_field = [](const std::string& line, const char* key,
                               std::string& value) {
    const std::string needle = std::string("\"") + key + "\": \"";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return false;
    const auto start = pos + needle.size();
    const auto end = line.find('"', start);
    if (end == std::string::npos) return false;
    value = line.substr(start, end - start);
    return true;
  };
  const auto number_field = [](const std::string& line, const char* key,
                               double& value) {
    const std::string needle = std::string("\"") + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return false;
    value = std::atof(line.c_str() + pos + needle.size());
    return true;
  };
  std::string line;
  NamedResult current;
  const auto flush = [&] {
    if (!current.name.empty()) out.entries[current.name] = current;
    current = NamedResult{};
  };
  while (std::getline(is, line)) {
    std::string s;
    double n = 0.0;
    if (string_field(line, "schema", s)) {
      out.schema = s;
    } else if (line.find("\"smoke\": true") != std::string::npos) {
      out.smoke = true;
    } else if (string_field(line, "name", s)) {
      flush();
      current.name = s;
    } else if (number_field(line, "reps", n)) {
      current.reps = static_cast<int>(n);
    } else if (number_field(line, "ns_op", n)) {
      current.result.ns_op = n;
    } else if (number_field(line, "slots_per_s", n)) {
      current.result.slots_per_s = n;
    } else if (number_field(line, "config_hash", n)) {
      current.result.config_hash =
          std::strtoull(line.c_str() + line.find(": ") + 2, nullptr, 10);
    }
  }
  flush();
  out.ok = !out.entries.empty();
  return out;
}

constexpr double kRegressionTolerance = 0.15;

int run_check(const std::string& baseline_path, const std::string& current_path,
              const std::string& hard_substr) {
  const ParsedFile base = parse_bench_file(baseline_path);
  const ParsedFile cur = parse_bench_file(current_path);
  // Name the file and the failure: "the baseline is gone" and "the baseline
  // is not a bench result" are different operator errors, and a raw stream
  // failure helps with neither.
  const auto reject = [](const char* role, const std::string& path,
                         const ParsedFile& f) {
    if (!f.readable) {
      std::fprintf(stderr, "shbench --check: cannot read %s file '%s'\n", role,
                   path.c_str());
      return true;
    }
    if (!f.ok || f.schema != "sh.bench.v1") {
      std::fprintf(stderr,
                   "shbench --check: %s file '%s' is not sh.bench.v1 output\n",
                   role, path.c_str());
      return true;
    }
    return false;
  };
  if (reject("baseline", baseline_path, base) ||
      reject("current", current_path, cur)) {
    return 2;
  }
  if (base.smoke != cur.smoke) {
    std::fprintf(stderr,
                 "shbench --check: smoke mode mismatch (baseline %s, current "
                 "%s) — not comparable\n",
                 base.smoke ? "on" : "off", cur.smoke ? "on" : "off");
    return 2;
  }
  bool mismatch = false;
  for (const auto& [name, entry] : base.entries) {
    const auto it = cur.entries.find(name);
    if (it == cur.entries.end()) {
      std::fprintf(stderr, "shbench --check: '%s' missing from current\n",
                   name.c_str());
      mismatch = true;
      continue;
    }
    if (it->second.result.config_hash != entry.result.config_hash) {
      std::fprintf(stderr,
                   "shbench --check: '%s' workload changed (config hash "
                   "%llu -> %llu) — regenerate the baseline\n",
                   name.c_str(),
                   static_cast<unsigned long long>(entry.result.config_hash),
                   static_cast<unsigned long long>(it->second.result.config_hash));
      mismatch = true;
    }
  }
  for (const auto& [name, entry] : cur.entries) {
    (void)entry;
    if (base.entries.find(name) == base.entries.end()) {
      std::fprintf(stderr, "shbench --check: '%s' missing from baseline\n",
                   name.c_str());
      mismatch = true;
    }
  }
  if (mismatch) return 2;

  int regressions = 0;
  int hard_regressions = 0;
  for (const auto& [name, entry] : base.entries) {
    const auto& now = cur.entries.at(name);
    const double ratio = entry.result.ns_op > 0.0
                             ? now.result.ns_op / entry.result.ns_op
                             : 1.0;
    const bool regressed = ratio > 1.0 + kRegressionTolerance;
    const bool hard = regressed && !hard_substr.empty() &&
                      name.find(hard_substr) != std::string::npos;
    const char* verdict = hard                                 ? "REGRESSED (hard)"
                          : regressed                          ? "REGRESSED"
                          : ratio < 1.0 - kRegressionTolerance ? "improved"
                                                               : "ok";
    std::fprintf(stderr, "  %-32s %10.1f -> %10.1f ns/op  (%+5.1f%%)  %s\n",
                 name.c_str(), entry.result.ns_op, now.result.ns_op,
                 (ratio - 1.0) * 100.0, verdict);
    if (regressed) ++regressions;
    if (hard) ++hard_regressions;
  }
  if (hard_regressions > 0) {
    std::fprintf(stderr,
                 "shbench --check: %d benchmark(s) matching --check-hard '%s' "
                 "regressed >%.0f%% — hard failure\n",
                 hard_regressions, hard_substr.c_str(),
                 kRegressionTolerance * 100.0);
    return 2;
  }
  if (regressions > 0) {
    std::fprintf(stderr, "shbench --check: %d benchmark(s) regressed >%.0f%%\n",
                 regressions, kRegressionTolerance * 100.0);
    return 3;
  }
  std::fprintf(stderr, "shbench --check: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (!o.check_baseline.empty()) {
    return run_check(o.check_baseline, o.check_current, o.check_hard);
  }

  const auto defs = all_benchmarks();
  if (o.list) {
    for (const auto& d : defs) std::printf("%s\n", d.name.c_str());
    return 0;
  }

  std::vector<NamedResult> results;
  for (const auto& d : defs) {
    if (!o.filter.empty() && d.name.find(o.filter) == std::string::npos) {
      continue;
    }
    if (!o.exclude.empty() && d.name.find(o.exclude) != std::string::npos) {
      continue;
    }
    NamedResult r;
    r.name = d.name;
    r.reps = o.reps;
    r.result = d.fn(o);
    results.push_back(r);
    std::fprintf(stderr, "  %-32s %10.1f ns/op  %12.0f slots/s\n",
                 r.name.c_str(), r.result.ns_op, r.result.slots_per_s);
  }
  if (results.empty()) {
    std::fprintf(stderr, "no benchmark matches --filter '%s'\n",
                 o.filter.c_str());
    return 2;
  }

  if (!o.out_path.empty()) {
    // Atomic like every other result artifact: a kill mid-emit must not
    // leave a torn sh.bench.v1 behind for --check to choke on.
    std::ostringstream os;
    write_results(os, o, results);
    if (!util::atomic_write_file(o.out_path, os.str())) {
      std::fprintf(stderr, "%s: cannot write %s\n", kTool, o.out_path.c_str());
      return 1;
    }
  } else {
    std::ostringstream os;
    write_results(os, o, results);
    std::fputs(os.str().c_str(), stdout);
  }
  return 0;
}

// shtrace — command-line tool for packet-fate traces.
//
//   shtrace gen  --env office --scenario mixed --seconds 20 --seed 1
//                --offset -2 --out trace.txt
//       Generates a synthetic trace (the library's stand-in for a
//       measurement campaign) and writes it in the portable text format.
//
//   shtrace stat trace.txt
//       Prints per-rate delivery ratios, motion share, SNR summary, and a
//       per-second delivery series at 6M.
//
//   shtrace run  trace.txt [--protocol hintaware|rapidsample|samplerate|
//                rraa|rbar|charm] [--workload tcp|udp]
//       Replays the trace through a rate-adaptation protocol and reports
//       throughput.
//
// Flags follow tools/cli.h: an unknown, duplicated or malformed flag exits 2
// with one line on stderr; an unreadable or invalid trace, or a failed
// --out, exits 1.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "channel/trace_generator.h"
#include "channel/trace_stats.h"
#include "cli.h"
#include "rate/hint_aware.h"
#include "rate/rapid_sample.h"
#include "rate/rraa.h"
#include "rate/sample_rate.h"
#include "rate/snr_adapters.h"
#include "rate/trace_runner.h"
#include "util/fsio.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sh;

namespace {

constexpr const char* kTool = "shtrace";

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  shtrace gen  --env office|hallway|outdoor|vehicular\n"
               "               --scenario static|mobile|mixed|vehicle\n"
               "               [--seconds N] [--seed N] [--offset DB]\n"
               "               [--shadow-scale X] --out FILE\n"
               "  shtrace stat FILE\n"
               "  shtrace run  FILE [--protocol NAME] [--workload tcp|udp]\n");
  return 2;
}

/// Parses `argv[start..]` as `--flag value` pairs into `flags`, whose keys
/// are the accepted flags and whose values are the defaults.
void parse_flags(int argc, char** argv, int start,
                 std::map<std::string, const char*>& flags) {
  cli::FlagTracker seen(kTool);
  for (int i = start; i < argc; ++i) {
    const auto it = flags.find(argv[i]);
    if (it == flags.end()) cli::unknown_option(kTool, argv[i]);
    seen.note(argv[i]);
    if (i + 1 >= argc) {
      cli::fail(kTool, std::string(argv[i]) + ": missing value");
    }
    it->second = argv[++i];
  }
}

int cmd_gen(int argc, char** argv) {
  std::map<std::string, const char*> flags{
      {"--env", "office"}, {"--scenario", "mixed"}, {"--seconds", "20"},
      {"--seed", "1"},     {"--offset", "0"},       {"--shadow-scale", "1"},
      {"--out", nullptr}};
  parse_flags(argc, argv, 2, flags);
  channel::TraceGeneratorConfig config;
  const auto env = channel::environment_from_name(flags["--env"]);
  if (!env) {
    cli::fail(kTool, std::string("--env: unknown environment '") +
                         flags["--env"] +
                         "' (expected office, hallway, outdoor, vehicular)");
  }
  config.env = *env;
  const Duration total = seconds(
      cli::parse_double(kTool, "--seconds", flags["--seconds"], 0.01, 1e5));
  const std::string scenario = flags["--scenario"];
  if (scenario == "static") {
    config.scenario = sim::MobilityScenario::all_static(total);
  } else if (scenario == "mobile") {
    config.scenario = sim::MobilityScenario::all_walking(total);
  } else if (scenario == "mixed") {
    config.scenario = sim::MobilityScenario::static_then_walking(total);
  } else if (scenario == "vehicle") {
    config.scenario = sim::MobilityScenario::all_vehicle(total);
  } else {
    cli::fail(kTool, "--scenario: unknown scenario '" + scenario +
                         "' (expected static, mobile, mixed, vehicle)");
  }
  config.seed = cli::parse_u64(kTool, "--seed", flags["--seed"]);
  config.snr_offset_db =
      cli::parse_double(kTool, "--offset", flags["--offset"], -100, 100);
  config.shadow_sigma_scale =
      cli::parse_double(kTool, "--shadow-scale", flags["--shadow-scale"], 0,
                        100);
  const char* out_path = flags["--out"];
  if (out_path == nullptr) cli::fail(kTool, "gen requires --out FILE");

  const auto trace = channel::generate_trace(config);
  std::ostringstream out;
  trace.save(out);
  if (!util::atomic_write_file(out_path, out.str())) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", kTool, out_path);
    return 1;
  }
  std::printf("wrote %zu slots (%.1f s) to %s\n", trace.size(),
              to_seconds(trace.duration()), out_path);
  return 0;
}

std::optional<channel::PacketFateTrace> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", kTool, path.c_str());
    return std::nullopt;
  }
  auto trace = channel::PacketFateTrace::load(in);
  if (!trace) {
    std::fprintf(stderr, "%s: '%s' is not a valid trace\n", kTool,
                 path.c_str());
  }
  return trace;
}

int cmd_stat(const std::string& path) {
  const auto trace = load_trace(path);
  if (!trace) return 1;

  std::printf("trace: %zu slots, %.1f s, slot %lld us\n", trace->size(),
              to_seconds(trace->duration()),
              static_cast<long long>(trace->slot_duration()));
  std::size_t moving = 0;
  util::RunningStats snr;
  for (std::size_t i = 0; i < trace->size(); ++i) {
    if (trace->slot(i).moving) ++moving;
    snr.add(trace->slot(i).snr_db);
  }
  std::printf("motion: %.0f%% of slots; measured SNR %.1f dB mean "
              "(%.1f..%.1f)\n\n",
              100.0 * static_cast<double>(moving) /
                  static_cast<double>(trace->size()),
              snr.mean(), snr.min(), snr.max());

  util::Table rates({"rate", "delivery ratio"});
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    rates.add_row({std::string(mac::rate(r).name),
                   util::fmt(trace->delivery_ratio(r), 3)});
  }
  rates.print(std::cout);

  std::printf("\n6M delivery per second:\n");
  const auto series = channel::delivery_series(*trace, mac::slowest_rate());
  util::Table per_second({"t (s)", "delivery", "moving"});
  for (const auto& point : series) {
    per_second.add_row({util::fmt(point.time_s, 0),
                        util::fmt(point.delivery_ratio, 2),
                        point.moving ? "1" : "0"});
  }
  per_second.print(std::cout);
  return 0;
}

int cmd_run(int argc, char** argv) {
  std::map<std::string, const char*> flags{{"--protocol", "hintaware"},
                                           {"--workload", "tcp"}};
  parse_flags(argc, argv, 3, flags);
  const std::string name = flags["--protocol"];
  std::optional<channel::PacketFateTrace> trace;
  std::unique_ptr<rate::RateAdapter> adapter;
  if (name == "hintaware") {
    adapter = std::make_unique<rate::HintAwareRateAdapter>(
        [&trace](Time t) {
          return trace->moving(std::max<Time>(0, t - 150 * kMillisecond));
        },
        util::Rng(42));
  } else if (name == "rapidsample") {
    adapter = std::make_unique<rate::RapidSample>();
  } else if (name == "samplerate") {
    adapter = std::make_unique<rate::SampleRateAdapter>();
  } else if (name == "rraa") {
    adapter = std::make_unique<rate::Rraa>();
  } else if (name == "rbar") {
    adapter = std::make_unique<rate::Rbar>();
  } else if (name == "charm") {
    adapter = std::make_unique<rate::Charm>();
  } else {
    cli::fail(kTool, "--protocol: unknown protocol '" + name +
                         "' (expected hintaware, rapidsample, samplerate, "
                         "rraa, rbar, charm)");
  }
  rate::RunConfig run;
  const std::string workload = flags["--workload"];
  if (workload == "tcp" || workload == "udp") {
    run.workload =
        workload == "udp" ? rate::Workload::kUdp : rate::Workload::kTcp;
  } else {
    cli::fail(kTool, "--workload: unknown workload '" + workload +
                         "' (expected tcp, udp)");
  }

  trace = load_trace(argv[2]);
  if (!trace) return 1;
  const auto result = rate::run_trace(*adapter, *trace, run);
  std::printf("%s over %s: %.2f Mbps (%llu/%llu packets, delivery %.3f)\n",
              name.c_str(),
              run.workload == rate::Workload::kTcp ? "TCP" : "UDP",
              result.throughput_mbps,
              static_cast<unsigned long long>(result.delivered),
              static_cast<unsigned long long>(result.attempts),
              result.delivery_ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "gen") return cmd_gen(argc, argv);
  if (argc < 3) return usage();
  if (command == "run") return cmd_run(argc, argv);
  if (command != "stat") return usage();
  if (argc > 3) cli::unknown_option(kTool, argv[3]);
  return cmd_stat(argv[2]);
}

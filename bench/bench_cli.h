// Command-line handling shared by the reproduction benches.
//
// The benches follow the same contract as shsweep and shbench (tools/cli.h):
// numeric flags are parsed strictly, a bad or duplicated flag exits 2 with a
// one-line diagnostic on stderr, and `--json` lands through
// util::atomic_write_file. Kept apart from experiment_config.h, which the
// tools and perfbench include without tools/ on their include path.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli.h"
#include "exp/sweep.h"
#include "util/fsio.h"

namespace sh::bench {

/// CLI options shared by the engine-backed benches: `--threads N` picks the
/// pool width (0 = hardware concurrency; the printed numbers are identical
/// at any width) and `--json FILE` additionally writes the structured
/// sh.sweep.v1 results.
struct SweepCliOptions {
  int threads = 0;
  std::string json_path;
};

inline SweepCliOptions parse_sweep_cli(int argc, char** argv) {
  const char* tool = argv[0];
  cli::FlagTracker seen(tool);
  SweepCliOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      seen.note("--threads");
      opts.threads = static_cast<int>(
          cli::parse_int(tool, "--threads", argv[++i], 0, 4096));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      seen.note("--json");
      opts.json_path = argv[++i];
    } else {
      cli::fail(tool, std::string("unexpected argument '") + argv[i] +
                          "' (usage: [--threads N] [--json FILE])");
    }
  }
  return opts;
}

/// `--vehicles N` of the vehicular benches; 0 (flag absent) selects the
/// paper-scale configuration.
inline int parse_vehicles_cli(int argc, char** argv) {
  const char* tool = argv[0];
  cli::FlagTracker seen(tool);
  int vehicles = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--vehicles") == 0 && i + 1 < argc) {
      seen.note("--vehicles");
      vehicles = static_cast<int>(
          cli::parse_int(tool, "--vehicles", argv[++i], 1, 1000000));
    } else {
      cli::fail(tool, std::string("unexpected argument '") + argv[i] +
                          "' (usage: [--vehicles N])");
    }
  }
  return vehicles;
}

/// Writes the JSON results file if `--json` was given (exit 1 if it cannot
/// be written); timing goes to stderr so stdout stays byte-stable across
/// machines and thread counts.
inline void finish_sweep(const exp::SweepResult& result,
                         const SweepCliOptions& opts) {
  if (!opts.json_path.empty() &&
      !util::atomic_write_file(opts.json_path, result.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "[sweep %s: %llu runs in %.2fs]\n", result.name.c_str(),
               static_cast<unsigned long long>(result.total_runs),
               result.wall_seconds);
}

}  // namespace sh::bench

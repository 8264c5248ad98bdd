// perfbench: one workload of the sensor-hints benchmark, measured in-process.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--tiny] [--expect HEX] [--spans FILE] [--dump-json FILE]
//
// Runs rounds of the workload (README.md) until S seconds have passed. Each
// round is set up (timed as set-up), run item by item (each item timed), and
// its output digest is checked against the first round's and, when given,
// against --expect. Timings are reported from the fastest round: on a shared
// host, neighbouring load slows whole stretches of a run by up to 1.6x and
// only ever adds time, so the best round estimates the program's own cost
// and a median round mostly tells which stretch the run fell in. With
// --trace 1 the rounds alternate untraced and traced:
// traced rounds record spans around every library call, the per-layer
// metrics come from them, and the untraced rounds measure the tracing
// overhead in the same run. Prints to stdout a meta line, a check line, and
// last the result object {correct, attempted, failed, metrics}; a readable
// summary goes to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "spans.h"
#include "util/detmath.h"
#include "workloads.h"

namespace {

using perfbench::Counters;
using perfbench::ItemLog;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  bool has_expect = false;
  std::uint64_t expect = 0;
  std::string spans_path;
  std::string dump_path;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--tiny] [--expect HEX] "
               "[--spans FILE] [--dump-json FILE]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text, int base = 10) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value, base);
  if (ec != std::errc{} || ptr != end || ptr == text) {
    usage_error(std::string(flag) + ": not an unsigned integer: '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(flag + ": missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_u64("--seed", v);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0) {
        usage_error(std::string("--seconds: expected 0 < S <= 3600, got '") +
                    v + "'");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage_error(std::string("--trace: expected 0 or 1, got '") + v + "'");
      }
      o.trace = v[0] - '0';
    } else if (flag == "--expect") {
      o.expect = parse_u64("--expect", v, 16);
      o.has_expect = true;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else if (flag == "--dump-json") {
      o.dump_path = v;
    } else {
      usage_error("unknown option '" + flag + "'");
    }
  }
  if (o.workload.empty() || o.seconds <= 0.0 || o.trace < 0) {
    usage_error("--workload, --seconds and --trace are required");
  }
  return o;
}

// --- host and build metadata ------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double highest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image, in MiB. VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across exec, so it would include the launching
/// process's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t items = 0;
  double p50_ms = 0.0;  ///< Percentiles of the round's item times.
  double p95_ms = 0.0;
  std::uint64_t digest = 0;
  Counters counters;
  std::map<std::string, double> self_ms;  ///< Traced rounds only.
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto workload = perfbench::make_workload(o.workload, o.seed, o.tiny);
  if (!workload) usage_error("unknown workload '" + o.workload + "'");

  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"tiny\": %s, "
      "\"trace\": %d, \"cpu_model\": %s, \"nproc\": %d, \"compiler\": %s, "
      "\"build_type\": %s, \"detmath\": %s}}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.tiny ? "true" : "false", o.trace, json_string(cpu_model()).c_str(),
      cpu_count(), json_string(compiler()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(sh::util::detmath::backend()).c_str());
  std::fflush(stdout);

  auto& tracer = perfbench::tracer();
  std::vector<Round> rounds;
  std::size_t item_samples[2] = {0, 0};  // [traced]
  std::vector<std::uint64_t> first_items;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string problem;
  const auto note = [&](const std::string& what) {
    if (correct) problem = what;
    correct = false;
  };

  const std::int64_t deadline =
      perfbench::now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (int r = 0;; ++r) {
    Round round;
    round.traced = o.trace == 1 && r % 2 == 1;
    // Set-up of the channel workloads takes microseconds, so it is repeated
    // until ~5 ms have been spent and the round keeps the median; the last
    // repetition's inputs are the ones the round runs on.
    std::vector<double> setups;
    for (double spent = 0.0; spent < 5e-3 && setups.size() < 500;) {
      workload->release();
      const std::int64_t setup_start = perfbench::now_ns();
      workload->setup();
      setups.push_back(
          static_cast<double>(perfbench::now_ns() - setup_start) / 1e9);
      spent += setups.back();
    }
    round.setup_s = median(setups);

    ItemLog items;
    const std::size_t first_span = tracer.spans().size();
    if (round.traced) tracer.start_round(r);
    const std::int64_t start = perfbench::now_ns();
    {
      perfbench::Scope span("round");
      round.digest = workload->run_round(items, round.counters);
    }
    round.wall_s = static_cast<double>(perfbench::now_ns() - start) / 1e9;
    tracer.stop();
    if (round.traced) {
      round.self_ms = perfbench::self_ms_by_name(tracer.spans(), first_span,
                                                 tracer.spans().size());
    }
    round.items = items.ms.size();
    if (round.items == 0) note("round ran no items");
    std::fprintf(stderr, "  round %d%s: %.3f s, %.2f items/s\n", r,
                 round.traced ? " traced" : "", round.wall_s,
                 ratio(static_cast<double>(round.items), round.wall_s));

    // An item fails when it threw, produced a non-finite output, or differs
    // from the same item of the first round; a round whose output differs
    // from the expected or the first round's digest fails every item.
    const bool round_ok =
        (!o.has_expect || round.digest == o.expect) &&
        (rounds.empty() || (round.digest == rounds.front().digest &&
                            round.counters == rounds.front().counters));
    if (!round_ok) {
      note("round " + std::to_string(r) + " digest " + hex(round.digest) +
           (o.has_expect ? " (expected " + hex(o.expect) + ")" : "") +
           " or its counts differ");
    }
    if (rounds.empty()) first_items = items.digest;
    for (std::size_t i = 0; i < round.items; ++i) {
      const bool item_failed = !round_ok || items.failed[i] != 0 ||
                               i >= first_items.size() ||
                               items.digest[i] != first_items[i];
      if (item_failed) {
        ++failed;
        note("item " + std::to_string(i) + " of round " + std::to_string(r) +
             " failed");
      }
    }
    round.p50_ms = percentile(items.ms, 0.50);
    round.p95_ms = percentile(items.ms, 0.95);
    item_samples[round.traced ? 1 : 0] += round.items;
    attempted += round.items;
    if (r == 0 && !o.dump_path.empty()) {
      std::ofstream os(o.dump_path, std::ios::binary | std::ios::trunc);
      os << workload->output();
      if (!os.flush()) note("cannot write " + o.dump_path);
    }
    rounds.push_back(std::move(round));
    const bool both_kinds = o.trace == 0 || rounds.size() >= 2;
    if (perfbench::now_ns() >= deadline && both_kinds) break;
  }
  workload->release();

  const auto per_round = [&](bool traced, auto value) {
    std::vector<double> v;
    for (const auto& round : rounds) {
      if (round.traced == traced) v.push_back(value(round));
    }
    return v;
  };
  const auto items_per_s = [](const Round& round) {
    return ratio(static_cast<double>(round.items), round.wall_s);
  };

  std::string span_check;
  std::vector<Metric> metrics;
  if (o.trace == 0) {
    metrics = {
        {"items_per_s", highest(per_round(false, items_per_s)), "1/s"},
        {"item_ms_p50",
         lowest(per_round(false, [](const Round& r) { return r.p50_ms; })),
         "ms"},
        {"item_ms_p95",
         lowest(per_round(false, [](const Round& r) { return r.p95_ms; })),
         "ms"},
        {"setup_s",
         lowest(per_round(false, [](const Round& r) { return r.setup_s; })),
         "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    span_check = perfbench::check_span_tree(tracer.spans());
    if (!span_check.empty()) note("span tree: " + span_check);
    if (!o.spans_path.empty() &&
        !perfbench::write_spans_jsonl(o.spans_path, tracer.spans())) {
      note("cannot write " + o.spans_path);
    }
    const auto ms = [&](const char* span_name) {
      return lowest(per_round(true, [&](const Round& r) {
        const auto it = r.self_ms.find(span_name);
        return it == r.self_ms.end() ? 0.0 : it->second;
      }));
    };
    // Every round's counts equal the first round's (checked above).
    const Counters& c = rounds.front().counters;
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double generate_ms = ms("channel.generate");
    const char* const kRateSpans[] = {"rate.hint_aware", "rate.rapid_sample",
                                      "rate.sample_rate", "rate.rraa",
                                      "rate.rbar", "rate.charm", "rate.hinted"};
    double rate_ms = 0.0;
    for (const char* name : kRateSpans) rate_ms += ms(name);
    const double cache_requests = count(c.cache_hits + c.cache_misses);
    const double traced_ips = highest(per_round(true, items_per_s));
    const double untraced_ips = highest(per_round(false, items_per_s));
    metrics = {
        {"channel.generate_ms", generate_ms, "ms"},
        {"channel.generate_calls", count(c.generate_calls), "count"},
        {"channel.slots", count(c.slots), "count"},
        {"channel.ns_per_slot", ratio(generate_ms * 1e6, count(c.slots)), "ns"},
        {"channel.cache_hits", count(c.cache_hits), "count"},
        {"channel.cache_misses", count(c.cache_misses), "count"},
        {"channel.cache_evictions", count(c.cache_evictions), "count"},
        {"channel.cache_hit_ratio", ratio(count(c.cache_hits), cache_requests),
         "fraction"},
        {"rate.hint_aware_ms", ms("rate.hint_aware"), "ms"},
        {"rate.rapid_sample_ms", ms("rate.rapid_sample"), "ms"},
        {"rate.sample_rate_ms", ms("rate.sample_rate"), "ms"},
        {"rate.rraa_ms", ms("rate.rraa"), "ms"},
        {"rate.rbar_ms", ms("rate.rbar"), "ms"},
        {"rate.charm_ms", ms("rate.charm"), "ms"},
        {"rate.attempts", count(c.rate_attempts), "count"},
        {"rate.delivered", count(c.rate_delivered), "count"},
        {"rate.delivery_ratio",
         ratio(count(c.rate_delivered), count(c.rate_attempts)), "fraction"},
        {"rate.ns_per_attempt", ratio(rate_ms * 1e6, count(c.rate_attempts)),
         "ns"},
        {"rate.hinted_ms", ms("rate.hinted"), "ms"},
        {"rate.standalone_hint_frames", count(c.standalone_hint_frames),
         "count"},
        {"sensors.detector_transitions", count(c.detector_transitions),
         "count"},
        {"fault.sensor_reports_dropped", count(c.sensor_reports_dropped),
         "count"},
        {"fault.hint_deliveries_dropped", count(c.hint_deliveries_dropped),
         "count"},
        {"topo.series_ms", ms("topo.series"), "ms"},
        {"topo.probing_error_ms", ms("topo.probing_error"), "ms"},
        {"vanet.step_ms", ms("vanet.step"), "ms"},
        {"vanet.snapshot_ms", ms("vanet.snapshot"), "ms"},
        {"vanet.observe_ms", ms("vanet.observe"), "ms"},
        {"vanet.finish_ms", ms("vanet.finish"), "ms"},
        {"vanet.links", count(c.links), "count"},
        {"vanet.vehicle_steps", count(c.vehicle_steps), "count"},
        {"exp.engine_ms", ms("exp.run"), "ms"},
        {"exp.json_ms", ms("exp.json"), "ms"},
        {"exp.json_bytes", count(c.json_bytes), "count"},
        {"trace.items_per_s", traced_ips, "1/s"},
        {"trace.untraced_items_per_s", untraced_ips, "1/s"},
        {"trace.overhead_share", 1.0 - ratio(traced_ips, untraced_ips),
         "fraction"},
        {"failure_share", ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)),
         "fraction"},
    };
  }

  std::fprintf(stderr,
               "[perfbench %s seed %llu%s: %zu rounds, %llu items "
               "(%zu untraced, %zu traced), %llu failed, digest %s%s]\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.tiny ? " tiny" : "", rounds.size(),
               static_cast<unsigned long long>(attempted), item_samples[0],
               item_samples[1], static_cast<unsigned long long>(failed),
               hex(rounds.front().digest).c_str(),
               correct ? "" : (", INCORRECT: " + problem).c_str());
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }

  std::printf(
      "{\"check\": {\"digest\": \"%s\", \"expected\": %s, \"rounds\": %zu, "
      "\"item_samples\": %zu, \"span_tree\": %s, \"problem\": %s}}\n",
      hex(rounds.front().digest).c_str(),
      o.has_expect ? ("\"" + hex(o.expect) + "\"").c_str() : "null",
      rounds.size(), item_samples[0],
      o.trace == 1 ? json_string(span_check.empty() ? "ok" : span_check).c_str()
                   : "null",
      json_string(problem).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

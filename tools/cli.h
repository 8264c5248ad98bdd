// Shared checked argument parsing for the sh* CLIs.
//
// shsweep, shbench, shtrace and the benches route every numeric flag and
// every unknown argument through these helpers so they fail identically: exit
// code 2 and a single-line diagnostic on stderr naming the offending flag
// and value (not a usage wall the user has to diff against their command
// line). Values are validated strictly — trailing junk, empty strings, and
// out-of-range numbers are errors, not silently-zero atoi results.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace sh::cli {

/// One-line diagnostic + exit 2 (the "bad invocation" code both tools
/// document for --check and argument errors alike).
[[noreturn]] inline void fail(const char* tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool, message.c_str());
  std::exit(2);
}

[[noreturn]] inline void unknown_option(const char* tool, const char* arg) {
  fail(tool, std::string("unknown option '") + arg + "' (try --help)");
}

inline long long parse_int(const char* tool, const char* flag,
                           const char* text, long long lo, long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    fail(tool, std::string(flag) + ": invalid integer '" + text + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    fail(tool, std::string(flag) + ": value '" + text + "' out of range [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

inline unsigned long long parse_u64(const char* tool, const char* flag,
                                    const char* text) {
  errno = 0;
  char* end = nullptr;
  if (text[0] == '-') {
    fail(tool, std::string(flag) + ": invalid unsigned integer '" + text + "'");
  }
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    fail(tool, std::string(flag) + ": invalid unsigned integer '" + text + "'");
  }
  if (errno == ERANGE) {
    fail(tool, std::string(flag) + ": value '" + text + "' out of range");
  }
  return v;
}

/// Rejects a flag given twice. Both tools historically let the last value
/// win silently, which turns a stale `--reps 2` earlier in a long command
/// line into a wrong-but-plausible sweep; now the second occurrence is a
/// hard error. Flags that are repeatable by design (`--fault`, `--merge`)
/// are declared at construction and exempted.
class FlagTracker {
 public:
  FlagTracker(const char* tool,
              std::initializer_list<const char*> repeatable = {})
      : tool_(tool), repeatable_(repeatable) {}

  /// Call once per matched occurrence of `flag`.
  void note(const char* flag) {
    for (const char* r : repeatable_) {
      if (std::strcmp(r, flag) == 0) return;
    }
    for (const char* s : seen_) {
      if (std::strcmp(s, flag) == 0) {
        fail(tool_, std::string("duplicate flag '") + flag +
                        "' (each flag may be given at most once)");
      }
    }
    seen_.push_back(flag);
  }

 private:
  const char* tool_;
  std::vector<const char*> repeatable_;
  std::vector<const char*> seen_;
};

/// One shard of an N-way run-index partition (`--shard K/N`): this process
/// owns run indices with run_index % count == index.
struct Shard {
  int index = 0;
  int count = 1;
};

/// Parses "K/N" with 0 <= K < N and 1 <= N <= 65535 (the shard tag is
/// persisted in a checkpoint header as two u16 fields).
inline Shard parse_shard(const char* tool, const char* flag,
                         const char* text) {
  const char* slash = std::strchr(text, '/');
  if (slash == nullptr || slash == text || slash[1] == '\0') {
    fail(tool, std::string(flag) + ": expected K/N (e.g. 0/4), got '" + text +
                   "'");
  }
  const std::string k_text(text, slash);
  Shard shard;
  shard.index =
      static_cast<int>(parse_int(tool, flag, k_text.c_str(), 0, 65534));
  shard.count = static_cast<int>(parse_int(tool, flag, slash + 1, 1, 65535));
  if (shard.index >= shard.count) {
    fail(tool, std::string(flag) + ": shard index " +
                   std::to_string(shard.index) + " must be < shard count " +
                   std::to_string(shard.count));
  }
  return shard;
}

inline double parse_double(const char* tool, const char* flag,
                           const char* text, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    fail(tool, std::string(flag) + ": invalid number '" + text + "'");
  }
  if (errno == ERANGE || !(v >= lo && v <= hi)) {  // !(…) also rejects NaN
    char msg[160];
    std::snprintf(msg, sizeof msg, "%s: value '%s' out of range [%g, %g]",
                  flag, text, lo, hi);
    fail(tool, msg);
  }
  return v;
}

}  // namespace sh::cli

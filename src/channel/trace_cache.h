// Process-wide memoization of generated packet-fate traces.
//
// A sweep that varies only protocol parameters (the common shsweep study:
// one channel, many hint/staleness settings) re-requests the exact same
// TraceGeneratorConfig once per sweep point. generate_trace is a pure
// function of its config, so those requests can share one generated trace;
// the cache hands out shared_ptr<const> snapshots, which makes a hit safe
// to consume from any pool worker.
//
// Determinism: a cached trace is byte-identical to a freshly generated one
// (same pure function, same config), so cache hits, misses, and evictions
// can never change experiment output — they change only how often the
// generator runs. Eviction policy is deterministic given the sequence of
// insertions (FIFO by first insertion); under a thread pool the insertion
// order may vary with scheduling, which affects only which configs get
// regenerated, never their contents.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "channel/trace_generator.h"
#include "util/memo_cache.h"

namespace sh::channel {

/// Canonical byte-exact key for a TraceGeneratorConfig: every field — the
/// environment, each mobility phase, seed, slot/payload, the SNR offsets
/// and noise, the shadowing scale and clock, and the drive-by geometry —
/// serialized in a fixed order, doubles as raw IEEE-754 bit patterns. Two configs share a key iff generate_trace is
/// guaranteed to produce the same trace.
std::string trace_config_key(const TraceGeneratorConfig& config);

/// Appends every mobility phase (duration, state, speed) of `scenario` to
/// `key`; the scenario part of trace_config_key, shared with other caches
/// keyed on a scenario.
void append_scenario_key(std::string& key,
                         const sim::MobilityScenario& scenario);

/// Stable 64-bit FNV-1a hash of trace_config_key. shbench records it in
/// sh.bench.v1 output so a benchmark is only ever compared against a
/// baseline generated from the identical workload.
std::uint64_t trace_config_hash(const TraceGeneratorConfig& config);

/// Bounded, thread-safe trace cache: util::MemoCache keyed by
/// trace_config_key. Concurrent get_or_generate calls for the same config
/// generate the trace once.
class TraceCache : public util::MemoCache<PacketFateTrace> {
 public:
  /// `capacity` is the maximum number of resident traces; 0 disables
  /// caching (get_or_generate degenerates to plain generate_trace).
  explicit TraceCache(std::size_t capacity = kDefaultCapacity)
      : MemoCache(capacity) {}

  /// Returns the trace for `config`, generating it on first request.
  /// Exceptions from generate_trace (invalid config) propagate to every
  /// caller waiting on that config and leave the cache without the entry.
  std::shared_ptr<const PacketFateTrace> get_or_generate(
      const TraceGeneratorConfig& config);

  static constexpr std::size_t kDefaultCapacity = 64;
};

/// The process-wide cache behind generate_trace_cached.
TraceCache& global_trace_cache();

/// generate_trace through the global cache. The returned trace is shared —
/// callers must treat it as immutable (the type enforces this).
std::shared_ptr<const PacketFateTrace> generate_trace_cached(
    const TraceGeneratorConfig& config);

}  // namespace sh::channel

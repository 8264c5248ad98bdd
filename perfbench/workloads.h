// The benchmark's four workloads (README.md has the table and the reasons).
//
// A workload is run in rounds. A round is one pass over a fixed input set
// derived from the seed alone, so every round of a run — traced or not —
// must produce the same output digest and the same counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Deterministic per-round counts, taken at the same boundaries as the
/// spans.
struct Counters {
  std::uint64_t generate_calls = 0;  ///< Trace requests (cache lookups).
  std::uint64_t slots = 0;           ///< Slots of traces generated on misses.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t rate_attempts = 0;
  std::uint64_t rate_delivered = 0;
  std::uint64_t standalone_hint_frames = 0;
  std::uint64_t detector_transitions = 0;
  std::uint64_t sensor_reports_dropped = 0;
  std::uint64_t hint_deliveries_dropped = 0;
  std::uint64_t links = 0;
  std::uint64_t vehicle_steps = 0;
  std::uint64_t json_bytes = 0;

  bool operator==(const Counters&) const = default;
};

/// What one round records about each of its items, in item order.
struct ItemLog {
  std::vector<double> ms;
  std::vector<std::uint64_t> digest;
  /// The item threw or produced a non-finite output.
  std::vector<char> failed;

  void add(double item_ms, std::uint64_t item_digest, bool item_failed) {
    ms.push_back(item_ms);
    digest.push_back(item_digest);
    failed.push_back(item_failed ? 1 : 0);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Frees the previous round's state. Not timed.
  virtual void release() = 0;
  /// Builds the inputs of the next round. Timed as the set-up metric.
  virtual void setup() = 0;
  /// Runs every item once and returns the digest of the round's output.
  virtual std::uint64_t run_round(ItemLog& items, Counters& counters) = 0;
  /// The last round's output document, where the workload has one (the
  /// sh.sweep.v1 JSON of the engine-driven workloads).
  virtual const std::string& output() const = 0;
};

/// Null for an unknown name. `tiny` selects the self-test input size.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);

}  // namespace perfbench

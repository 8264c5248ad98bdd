// Deterministic parallel sweep engine.
//
// Every figure in the paper is a sweep: a grid of (environment, mobility,
// placement) points, each repeated over several seeds and averaged. The
// SweepRunner fans that grid over a work-stealing thread pool while keeping
// the results bit-for-bit independent of the thread count:
//
//  * each repetition r of point p has a global run index i (prefix sum of
//    repetitions), and draws all of its randomness from the seed
//    util::Rng::derive_seed(base_seed, i) — never from shared state;
//  * each repetition writes its MetricSample into its own pre-allocated
//    slot, so scheduling order cannot reorder floating-point accumulation;
//  * aggregation into per-point summaries happens serially, in run-index
//    order, after the pool drains.
//
// Consequently `run()` at 1, 2, or 64 threads produces byte-identical JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/metrics.h"
#include "exp/thread_pool.h"

namespace sh::exp {

class CheckpointWriter;

/// One cell of the sweep grid. `params` is free-form metadata (environment
/// name, mobility, offset...) carried into the JSON results verbatim.
struct SweepPoint {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
  int repetitions = 1;
};

/// Stream constant separating fault randomness from experiment randomness:
/// a run's fault schedule is derived from its seed but never collides with
/// the streams the experiment itself forks from that seed.
inline constexpr std::uint64_t kFaultSeedStream = 0xFA17;

/// Identity of one repetition, handed to the run function.
struct RunContext {
  std::size_t point_index = 0;
  int repetition = 0;
  std::uint64_t run_index = 0;  ///< Global index across the whole sweep.
  std::uint64_t seed = 0;       ///< derive_seed(base_seed, run_index).
  /// derive_seed(seed, kFaultSeedStream) — the seed for this run's
  /// FaultPlan, fixed by (base_seed, run_index) alone so fault schedules
  /// are identical at any thread count.
  std::uint64_t fault_seed = 0;
};

/// Executes one repetition and reports its metrics. Must be thread-safe and
/// draw randomness only from `ctx.seed` (or deterministic data of its own);
/// anything else breaks thread-count invariance.
using RunFn = std::function<MetricSample(const SweepPoint& point,
                                         const RunContext& ctx)>;

/// Everything the engine knows about one finished repetition — the unit the
/// checkpoint journal persists and resume replays.
struct RunRecord {
  std::uint64_t run_index = 0;
  MetricSample sample;
};

struct PointResult {
  SweepPoint point;
  MetricRegistry metrics;  ///< Aggregated over the point's repetitions.
};

/// One shard of a distributed sweep that did not reach full coverage (its
/// worker exhausted retries). Carried in the merged result so a degraded
/// merge is explicit — the JSON names the hole instead of silently shipping
/// a thinner sample count.
struct IncompleteShard {
  int shard = 0;                    ///< Shard index K.
  int of = 1;                       ///< Shard count N.
  std::uint64_t missing_runs = 0;   ///< Owned run indices with no record.
};

struct SweepResult {
  std::string name;
  std::uint64_t base_seed = 0;
  std::uint64_t total_runs = 0;
  /// Non-empty only for a degraded distributed merge; gates the JSON
  /// "incomplete_shards" member, so complete merges stay byte-identical to
  /// single-host output.
  std::vector<IncompleteShard> incomplete_shards;
  std::vector<PointResult> points;
  /// Wall-clock of the parallel phase. Deliberately NOT serialized: the
  /// JSON must be identical across machines and thread counts.
  double wall_seconds = 0.0;

  const PointResult* find(std::string_view label) const noexcept;
  /// Summary of `metric` at the point labelled `label`; count 0 if absent.
  MetricSummary summary(std::string_view label,
                        std::string_view metric) const noexcept;

  /// Serializes the "sh.sweep.v1" schema (see DESIGN.md).
  void write_json(std::ostream& os) const;
  std::string to_json() const;
};

struct SweepConfig {
  std::string name = "sweep";
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 = hardware concurrency, 1 = run inline.
  int threads = 0;
};

/// Crash-tolerance knobs for one `run()` call. Defaults reproduce the
/// pre-checkpoint engine exactly.
struct RunOptions {
  /// When non-null, every completed repetition is appended to this journal
  /// (CRC-framed, fsync'd) as it finishes. Not owned.
  CheckpointWriter* journal = nullptr;
  /// Verified records from a previous interrupted run. Their run indices
  /// are replayed — sample taken verbatim, the run function never called —
  /// making a resumed sweep byte-identical to an uninterrupted one. Not
  /// owned.
  const std::vector<RunRecord>* resume = nullptr;
  /// Distributed shard filter: of `shard_count` cooperating processes this
  /// one owns run indices with run_index % shard_count == shard_index.
  /// Seeds are already independent per run index, so a shard's records are
  /// bit-identical to the same indices of a single-host run. Non-owned
  /// indices neither execute nor aggregate — the partial result covers
  /// exactly the owned runs. shard_count <= 1 disables filtering.
  int shard_index = 0;
  int shard_count = 1;
  /// Merge mode: every aggregated run must come from a `resume` record;
  /// indices with no record are skipped (never executed, never aggregated)
  /// instead of re-run. With full coverage the result is byte-identical to
  /// a normal run; gaps surface as reduced per-point counts plus the
  /// caller-filled SweepResult::incomplete_shards manifest.
  bool replay_only = false;
};

/// Sum of repetitions over `points` (repetitions clamped to >= 1), i.e. the
/// run-index domain of a sweep — what a checkpoint header records.
std::uint64_t total_run_count(const std::vector<SweepPoint>& points) noexcept;

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});

  int thread_count() const noexcept { return pool_.thread_count(); }
  const SweepConfig& config() const noexcept { return config_; }

  /// Runs every repetition of every point across the pool and returns the
  /// aggregated, deterministic result. Exceptions from `fn` propagate after
  /// the batch drains (remaining repetitions still run).
  SweepResult run(std::vector<SweepPoint> points, const RunFn& fn);
  /// Same, with crash tolerance: checkpoint journaling, replay of resumed
  /// records, and the shard filter.
  SweepResult run(std::vector<SweepPoint> points, const RunFn& fn,
                  const RunOptions& opts);

 private:
  SweepConfig config_;
  ThreadPool pool_;
};

}  // namespace sh::exp

#include "exp/sweep.h"

#include <chrono>
#include <ostream>
#include <sstream>

#include "exp/checkpoint.h"
#include "exp/json.h"
#include "util/rng.h"

namespace sh::exp {

std::uint64_t total_run_count(const std::vector<SweepPoint>& points) noexcept {
  std::uint64_t total = 0;
  for (const auto& p : points) {
    total += static_cast<std::uint64_t>(p.repetitions < 1 ? 1 : p.repetitions);
  }
  return total;
}

const PointResult* SweepResult::find(std::string_view label) const noexcept {
  for (const auto& p : points) {
    if (p.point.label == label) return &p;
  }
  return nullptr;
}

MetricSummary SweepResult::summary(std::string_view label,
                                   std::string_view metric) const noexcept {
  const PointResult* p = find(label);
  return p ? p->metrics.summary(metric) : MetricSummary{};
}

void SweepResult::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.member("schema", "sh.sweep.v1");
  w.member("name", std::string_view(name));
  w.member("base_seed", base_seed);
  w.member("total_runs", total_runs);
  // Emitted only for a degraded distributed merge, so complete output —
  // single-host or merged — stays byte-identical to pre-distributed builds.
  if (!incomplete_shards.empty()) {
    w.key("incomplete_shards");
    w.begin_array();
    for (const auto& inc : incomplete_shards) {
      w.begin_object();
      w.member("shard", static_cast<std::int64_t>(inc.shard));
      w.member("of", static_cast<std::int64_t>(inc.of));
      w.member("missing_runs", inc.missing_runs);
      w.end_object();
    }
    w.end_array();
  }
  w.key("points");
  w.begin_array();
  for (const auto& pr : points) {
    w.begin_object();
    w.member("label", std::string_view(pr.point.label));
    w.key("params");
    w.begin_object();
    for (const auto& [k, v] : pr.point.params) w.member(k, std::string_view(v));
    w.end_object();
    w.member("repetitions", static_cast<std::int64_t>(pr.point.repetitions));
    w.key("metrics");
    w.begin_object();
    for (const auto& [metric, s] : pr.metrics.summaries()) {
      w.key(metric);
      w.begin_object();
      w.member("count", static_cast<std::uint64_t>(s.count));
      w.member("mean", s.mean);
      w.member("stddev", s.stddev);
      w.member("ci95", s.ci95);
      w.member("min", s.min);
      w.member("max", s.max);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string SweepResult::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

SweepRunner::SweepRunner(SweepConfig config)
    : config_(std::move(config)), pool_(config_.threads) {}

SweepResult SweepRunner::run(std::vector<SweepPoint> points, const RunFn& fn) {
  return run(std::move(points), fn, RunOptions{});
}

SweepResult SweepRunner::run(std::vector<SweepPoint> points, const RunFn& fn,
                             const RunOptions& opts) {
  // Global run index = prefix sum of repetitions; the seed of run i depends
  // only on (base_seed, i), never on scheduling.
  std::vector<std::uint64_t> first_run(points.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    first_run[p] = total;
    if (points[p].repetitions < 1) points[p].repetitions = 1;
    total += static_cast<std::uint64_t>(points[p].repetitions);
  }

  std::vector<MetricSample> samples(total);
  // Replayed runs take their sample verbatim from the journal — the run
  // function never executes for them, which is both the resume speedup and
  // the reason resumed output is byte-identical (metric values round-trip
  // the journal as raw IEEE-754 bits).
  std::vector<char> replayed(total, 0);
  if (opts.resume != nullptr) {
    for (const auto& rec : *opts.resume) {
      if (rec.run_index >= total) continue;
      samples[rec.run_index] = rec.sample;
      replayed[rec.run_index] = 1;
    }
  }

  // Shard ownership: run i belongs to this process iff i % N == K. The
  // modulo partition interleaves points across shards, so every shard
  // touches every point and a dead shard thins all points evenly instead of
  // silently zeroing a contiguous block of the grid.
  const int shard_count = opts.shard_count < 1 ? 1 : opts.shard_count;
  const auto owned = [&](std::size_t i) {
    return shard_count <= 1 ||
           static_cast<int>(i % static_cast<std::size_t>(shard_count)) ==
               opts.shard_index;
  };

  // Wall-clock timing feeds only the stderr progress summary
  // (wall_seconds); it never reaches metrics or JSON. shlint:allow(D1)
  const auto t0 = std::chrono::steady_clock::now();
  pool_.parallel_for(total, [&](std::size_t i) {
    if (replayed[i] != 0 || opts.replay_only || !owned(i)) return;
    // Locate the point owning run i (points are few; linear scan is cheap
    // relative to one repetition).
    std::size_t p = points.size() - 1;
    while (first_run[p] > i) --p;
    RunContext ctx;
    ctx.point_index = p;
    ctx.repetition = static_cast<int>(i - first_run[p]);
    ctx.run_index = i;
    ctx.seed = util::Rng::derive_seed(config_.base_seed, i);
    ctx.fault_seed = util::Rng::derive_seed(ctx.seed, kFaultSeedStream);
    samples[i] = fn(points[p], ctx);
    // Journal the completed repetition before moving on: once the append
    // returns, this run survives any later kill.  shlint:shard-safe —
    // append() serializes internally, and replay keys records by run
    // index, so on-disk append order never reaches an output.
    if (opts.journal != nullptr) opts.journal->append({i, samples[i]});
  });
  const auto t1 = std::chrono::steady_clock::now();  // shlint:allow(D1)

  SweepResult result;
  result.name = config_.name;
  result.base_seed = config_.base_seed;
  result.total_runs = total;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointResult pr;
    pr.point = std::move(points[p]);
    const auto reps = static_cast<std::uint64_t>(pr.point.repetitions);
    for (std::uint64_t r = 0; r < reps; ++r) {
      const std::uint64_t i = first_run[p] + r;
      // A merge aggregates exactly the replayed records (gaps stay gaps); a
      // shard aggregates exactly its owned indices (the partial output).
      if (opts.replay_only ? replayed[i] == 0 : !owned(i)) continue;
      pr.metrics.add(samples[i]);
    }
    result.points.push_back(std::move(pr));
  }
  return result;
}

}  // namespace sh::exp

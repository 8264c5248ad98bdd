// Distributed sweep execution: shard-journal merging and a fault-tolerant
// multi-process supervisor.
//
// A distributed sweep is N processes running the SAME grid with
// `RunOptions::shard_index/shard_count` filtering (run_index % N == K).
// Seeds are independent per run index (derive_seed(base, i)), so shard K's
// journal records are bit-identical to the same indices of a single-host
// run — merging is pure set union plus validation, never recomputation:
//
//   merge_checkpoints  loads every shard's sh.ckpt.v1 journal, validates
//                      that all of them were written by the expected sweep
//                      configuration (config hash + total runs + one
//                      consistent K/N scheme), and checks run-index
//                      coverage: overlaps are always fatal, gaps are fatal
//                      unless the caller opts into a degraded merge, in
//                      which case they come back as an explicit per-shard
//                      IncompleteShard manifest instead of a silent hole.
//
//   supervise_shards   forks one worker process per shard and wraps it in
//                      bounded retry with exponential backoff whose jitter
//                      derives deterministically from derive_seed(seed,
//                      shard, attempt), a wall-clock watchdog that SIGKILLs
//                      and restarts hung workers, and SIGKILL / nonzero-exit
//                      / timeout classified per attempt. A shard that
//                      exhausts its attempts is reported, not fatal — the
//                      caller merges what completed and emits the
//                      incomplete_shards manifest.
//
// Determinism: worker output is deterministic per shard, journal replay is
// keyed by run index, and the merge replays records through the engine in
// run-index order — so a supervised N-shard sweep (even one whose workers
// crashed and resumed) merges to JSON byte-identical to an uninterrupted
// single-host run. Only scheduling (which worker finishes first, how often
// one retried) varies, and none of that reaches the output.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/sweep.h"

namespace sh::exp {

struct ShardMergeOptions {
  /// Hash the merged journals must carry (sweep_config_hash of the grid the
  /// caller rebuilt from its flags).
  std::uint64_t expected_config_hash = 0;
  /// Run-index domain of that grid; every journal header must agree.
  std::uint64_t total_runs = 0;
  /// When false (the default, and the `--merge` CLI default), any coverage
  /// gap is an error. The supervisor sets it after a shard exhausted its
  /// retries so the completed prefix still merges.
  bool allow_incomplete = false;
};

struct ShardMergeResult {
  bool ok = false;     ///< false → `error` is set; the CLI exits 2 with it.
  std::string error;   ///< One-line diagnostic naming the offending journal,
                       ///< run index, or gap.
  /// Union of every journal's verified records; feed as RunOptions::resume
  /// with replay_only — the engine keys replay on run_index, so input order
  /// does not matter.
  std::vector<RunRecord> records;
  int shard_count = 1;  ///< N of the merged scheme (1 for unsharded input).
  /// Shards with missing coverage, ascending by shard index. Non-empty only
  /// when allow_incomplete tolerated gaps.
  std::vector<IncompleteShard> incomplete;
  std::uint64_t missing_total = 0;  ///< Run indices with no record anywhere.
};

/// Loads, validates, and unions the shard journals at `paths`. Torn tails
/// are tolerated per shard exactly like single-host resume (the loader
/// already dropped and reported them); header-level damage, configuration
/// mismatch, mixed shard schemes, duplicate shards, overlapping records,
/// and (unless allowed) coverage gaps fail with a diagnostic.
ShardMergeResult merge_checkpoints(const std::vector<std::string>& paths,
                                   const ShardMergeOptions& opts);

/// Policy for one supervised fleet of shard workers.
struct SuperviseOptions {
  int shards = 1;
  /// Worker launches per shard (first try + retries). A worker that died is
  /// relaunched resuming its own journal, so a retry costs only the
  /// repetitions the journal had not yet made durable.
  int max_attempts = 3;
  /// Wall-clock watchdog per attempt, seconds; 0 disables it. A worker
  /// still running at the deadline is SIGKILLed and the attempt classified
  /// timed_out. Wall time is sanctioned nondeterminism here: it decides
  /// only whether a worker is re-run, and re-runs replay the journal, so
  /// output never depends on it.
  double worker_timeout_s = 0.0;
  /// Exponential-backoff base for relaunch delays, milliseconds. Attempt
  /// a >= 1 waits base * 2^(a-1) (capped at 64x) plus a deterministic
  /// jitter in [0, base) drawn from derive_seed(derive_seed(seed, shard),
  /// attempt) — shards never stampede the filesystem in lockstep, and the
  /// schedule is reproducible. 0 relaunches immediately.
  double backoff_ms = 200.0;
  /// Jitter stream seed (the sweep's base seed in shsweep).
  std::uint64_t seed = 0;
};

/// Classification of one worker attempt's end.
enum class WorkerOutcome : std::uint8_t {
  kOk = 0,        ///< exit(0).
  kCrashed = 1,   ///< Died to a signal (SIGKILL, SIGSEGV, ...).
  kExited = 2,    ///< Nonzero exit code.
  kTimedOut = 3,  ///< Watchdog SIGKILL after worker_timeout_s.
};

const char* worker_outcome_name(WorkerOutcome outcome) noexcept;

/// Per-shard supervision summary.
struct ShardStatus {
  int shard = 0;
  int attempts = 0;        ///< Workers launched for this shard.
  bool completed = false;  ///< Some attempt exited 0.
  WorkerOutcome last = WorkerOutcome::kOk;  ///< Outcome of the last attempt.
  int last_exit_code = 0;  ///< Valid when last == kExited.
  int last_signal = 0;     ///< Valid when last == kCrashed.
  std::uint64_t crashes = 0;
  std::uint64_t exits = 0;
  std::uint64_t timeouts = 0;
};

/// Builds the argv for one worker launch: `shard` identifies the partition,
/// `attempt` starts at 0. argv[0] must be the executable path.
using WorkerArgvFn =
    std::function<std::vector<std::string>(int shard, int attempt)>;

/// Runs the whole fleet to completion or exhaustion and returns one status
/// per shard (index-ordered). Workers inherit stderr; the supervisor never
/// reads their output — ground truth is the shard journal.
std::vector<ShardStatus> supervise_shards(const SuperviseOptions& opts,
                                          const WorkerArgvFn& argv_for);

}  // namespace sh::exp

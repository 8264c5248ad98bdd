#include "exp/distributed.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>

#include "util/rng.h"

namespace sh::exp {
namespace {

std::string u64_str(std::uint64_t v) { return std::to_string(v); }

/// First run index in [0, total) owned by `shard` with no record — the
/// concrete example a gap diagnostic names.
std::uint64_t first_gap(const std::vector<signed char>& covered,
                        std::uint64_t total, int shard, int n) {
  for (std::uint64_t i = static_cast<std::uint64_t>(shard); i < total;
       i += static_cast<std::uint64_t>(n)) {
    if (covered[i] < 0) return i;
  }
  return total;
}

}  // namespace

ShardMergeResult merge_checkpoints(const std::vector<std::string>& paths,
                                   const ShardMergeOptions& opts) {
  ShardMergeResult out;
  if (paths.empty()) {
    out.error = "no checkpoint files to merge";
    return out;
  }
  if (opts.total_runs == 0) {
    out.error = "merge target has zero runs";
    return out;
  }

  int n = 0;  // Shard scheme N; 0 until the first journal fixes it.
  std::vector<int> shard_of_path(paths.size(), 0);
  // covered[i] = index into `paths` of the journal providing run i, or -1.
  std::vector<signed char> covered;
  std::vector<std::size_t> provider(opts.total_runs, 0);
  covered.assign(opts.total_runs, -1);

  for (std::size_t f = 0; f < paths.size(); ++f) {
    const CheckpointLoad load = load_checkpoint(paths[f]);
    if (!load.ok) {
      out.error = paths[f] + ": " + load.error;
      return out;
    }
    if (load.header.config_hash != opts.expected_config_hash) {
      out.error = paths[f] +
                  ": written by a different sweep configuration (config hash "
                  "mismatch); every merged journal must come from the same "
                  "grid flags as this merge";
      return out;
    }
    if (load.header.total_runs != opts.total_runs) {
      out.error = paths[f] + ": total_runs " + u64_str(load.header.total_runs) +
                  " does not match this sweep's " + u64_str(opts.total_runs);
      return out;
    }
    // Unsharded journals (count 0, e.g. a plain --checkpoint run) merge as
    // the trivial 0/1 scheme — `--merge one.ckpt` is resume-to-JSON.
    const int count = load.header.shard_count == 0 ? 1 : load.header.shard_count;
    const int index = load.header.shard_count == 0 ? 0 : load.header.shard_index;
    if (n == 0) {
      n = count;
    } else if (count != n) {
      out.error = paths[f] + ": shard scheme " + std::to_string(index) + "/" +
                  std::to_string(count) +
                  " does not match the other journals' N=" + std::to_string(n);
      return out;
    }
    shard_of_path[f] = index;
    for (std::size_t g = 0; g < f; ++g) {
      if (shard_of_path[g] == index) {
        out.error = "duplicate shard " + std::to_string(index) + "/" +
                    std::to_string(n) + " journals: " + paths[g] + " and " +
                    paths[f];
        return out;
      }
    }
    for (const auto& rec : load.records) {
      if (rec.run_index >= opts.total_runs) {
        out.error = paths[f] + ": record for run_index " +
                    u64_str(rec.run_index) + " outside this sweep's " +
                    u64_str(opts.total_runs) + " runs";
        return out;
      }
      if (static_cast<int>(rec.run_index % static_cast<std::uint64_t>(n)) !=
          index) {
        out.error = paths[f] + ": record for run_index " +
                    u64_str(rec.run_index) + " does not belong to shard " +
                    std::to_string(index) + "/" + std::to_string(n);
        return out;
      }
      if (covered[rec.run_index] >= 0) {
        out.error = "overlapping coverage: run_index " + u64_str(rec.run_index) +
                    " appears in both " + paths[provider[rec.run_index]] +
                    " and " + paths[f];
        return out;
      }
      covered[rec.run_index] = 1;
      provider[rec.run_index] = f;
    }
    out.records.insert(out.records.end(), load.records.begin(),
                       load.records.end());
  }
  out.shard_count = n;

  // Coverage: count the holes per shard of the scheme.
  std::vector<std::uint64_t> missing_by_shard(static_cast<std::size_t>(n), 0);
  for (std::uint64_t i = 0; i < opts.total_runs; ++i) {
    if (covered[i] < 0) {
      ++out.missing_total;
      ++missing_by_shard[i % static_cast<std::uint64_t>(n)];
    }
  }
  if (out.missing_total > 0) {
    if (!opts.allow_incomplete) {
      // Name the gap precisely: a whole shard with no journal is the common
      // operator error; a partially-covered shard means its worker died.
      for (int k = 0; k < n; ++k) {
        if (missing_by_shard[static_cast<std::size_t>(k)] == 0) continue;
        const bool have_journal =
            std::find(shard_of_path.begin(), shard_of_path.end(), k) !=
            shard_of_path.end();
        const std::uint64_t gap = first_gap(covered, opts.total_runs, k, n);
        if (!have_journal) {
          out.error = "coverage gap: no journal for shard " +
                      std::to_string(k) + "/" + std::to_string(n) + " (" +
                      u64_str(missing_by_shard[static_cast<std::size_t>(k)]) +
                      " run(s) starting at run_index " + u64_str(gap) +
                      "); pass its checkpoint or rerun that shard";
        } else {
          out.error = "coverage gap: shard " + std::to_string(k) + "/" +
                      std::to_string(n) + " is missing " +
                      u64_str(missing_by_shard[static_cast<std::size_t>(k)]) +
                      " run(s) (first at run_index " + u64_str(gap) +
                      ") — its worker was interrupted; resume it with --shard " +
                      std::to_string(k) + "/" + std::to_string(n) +
                      " --resume, or merge with --merge-allow-incomplete";
        }
        return out;
      }
    }
    for (int k = 0; k < n; ++k) {
      if (missing_by_shard[static_cast<std::size_t>(k)] == 0) continue;
      IncompleteShard inc;
      inc.shard = k;
      inc.of = n;
      inc.missing_runs = missing_by_shard[static_cast<std::size_t>(k)];
      out.incomplete.push_back(inc);
    }
  }
  out.ok = true;
  return out;
}

const char* worker_outcome_name(WorkerOutcome outcome) noexcept {
  switch (outcome) {
    case WorkerOutcome::kOk: return "ok";
    case WorkerOutcome::kCrashed: return "crashed";
    case WorkerOutcome::kExited: return "exited";
    case WorkerOutcome::kTimedOut: return "timed_out";
  }
  return "unknown";
}

namespace {

// The supervisor is wall-clock territory by design: watchdog deadlines and
// backoff delays decide only whether a worker process is (re)launched, and
// relaunched workers resume their journal, so no output bit ever depends on
// these clocks.
using Clock = std::chrono::steady_clock;  // shlint:allow(D1)

struct Running {
  ::pid_t pid = -1;
  int shard = 0;
  bool has_deadline = false;
  bool watchdog_killed = false;
  Clock::time_point deadline;
};

struct Pending {
  int shard = 0;
  Clock::time_point earliest;
};

::pid_t launch_worker(const std::vector<std::string>& argv) {
  if (argv.empty()) return -1;
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const ::pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    _exit(127);  // exec failed; parent classifies as a nonzero exit.
  }
  return pid;
}

/// Relaunch delay before attempt `attempt` (>= 1) of `shard`: exponential
/// in the attempt number, jittered deterministically per (seed, shard,
/// attempt) so a fleet of failing shards fans out instead of stampeding.
Clock::duration backoff_delay(const SuperviseOptions& opts, int shard,
                              int attempt) {
  if (opts.backoff_ms <= 0.0) return Clock::duration::zero();
  const int exponent = std::min(std::max(attempt - 1, 0), 6);
  double ms = opts.backoff_ms * static_cast<double>(1 << exponent);
  const std::uint64_t jitter_draw = util::Rng::derive_seed(
      util::Rng::derive_seed(opts.seed, static_cast<std::uint64_t>(shard)),
      static_cast<std::uint64_t>(attempt));
  const auto base = static_cast<std::uint64_t>(
      opts.backoff_ms < 1.0 ? 1.0 : opts.backoff_ms);
  ms += static_cast<double>(jitter_draw % base);
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

std::vector<ShardStatus> supervise_shards(const SuperviseOptions& opts,
                                          const WorkerArgvFn& argv_for) {
  const int n = opts.shards < 1 ? 1 : opts.shards;
  const int max_attempts = opts.max_attempts < 1 ? 1 : opts.max_attempts;
  std::vector<ShardStatus> statuses(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) statuses[static_cast<std::size_t>(k)].shard = k;

  std::vector<Running> running;
  std::vector<Pending> pending;
  const auto start = Clock::now();  // shlint:allow(D1)
  pending.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) pending.push_back(Pending{k, start});

  const auto schedule_retry_or_give_up = [&](ShardStatus& st,
                                             Clock::time_point now) {
    if (st.attempts < max_attempts) {
      pending.push_back(Pending{
          st.shard, now + backoff_delay(opts, st.shard, st.attempts)});
    }
  };

  while (!running.empty() || !pending.empty()) {
    const auto now = Clock::now();  // shlint:allow(D1)

    // Launch every pending shard whose backoff delay has elapsed.
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->earliest > now) {
        ++it;
        continue;
      }
      const int shard = it->shard;
      it = pending.erase(it);
      ShardStatus& st = statuses[static_cast<std::size_t>(shard)];
      const std::vector<std::string> argv = argv_for(shard, st.attempts);
      ++st.attempts;
      const ::pid_t pid = launch_worker(argv);
      if (pid < 0) {
        // fork/argv failure: burn the attempt as a nonzero exit and retry.
        st.last = WorkerOutcome::kExited;
        st.last_exit_code = 127;
        ++st.exits;
        schedule_retry_or_give_up(st, now);
        continue;
      }
      Running r;
      r.pid = pid;
      r.shard = shard;
      r.has_deadline = opts.worker_timeout_s > 0.0;
      if (r.has_deadline) {
        r.deadline = now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   opts.worker_timeout_s));
      }
      running.push_back(r);
    }

    // Watchdog: SIGKILL any worker past its deadline; the reap below sees
    // the signal death and classifies it timed_out via the flag.
    for (auto& r : running) {
      if (r.has_deadline && !r.watchdog_killed && now >= r.deadline) {
        r.watchdog_killed = true;
        ::kill(r.pid, SIGKILL);
      }
    }

    // Reap finished workers (non-blocking, per tracked pid — never steal
    // children we did not fork).
    for (auto it = running.begin(); it != running.end();) {
      int wstatus = 0;
      const ::pid_t got = ::waitpid(it->pid, &wstatus, WNOHANG);
      if (got != it->pid) {
        ++it;
        continue;
      }
      ShardStatus& st = statuses[static_cast<std::size_t>(it->shard)];
      if (it->watchdog_killed) {
        st.last = WorkerOutcome::kTimedOut;
        ++st.timeouts;
      } else if (WIFSIGNALED(wstatus)) {
        st.last = WorkerOutcome::kCrashed;
        st.last_signal = WTERMSIG(wstatus);
        ++st.crashes;
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
        st.last = WorkerOutcome::kOk;
        st.completed = true;
      } else {
        st.last = WorkerOutcome::kExited;
        st.last_exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 127;
        ++st.exits;
      }
      if (!st.completed) schedule_retry_or_give_up(st, now);
      it = running.erase(it);
    }

    if (!running.empty() || !pending.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return statuses;
}

}  // namespace sh::exp

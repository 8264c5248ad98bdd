// End-to-end distributed-sweep tests against the real shsweep binary.
//
// The acceptance matrix from the distributed design: N shards (each its own
// process and journal) merged back together must be byte-identical to an
// uninterrupted single-host run at 1 and 8 threads; a supervised fleet
// whose workers are SIGKILLed mid-shard or wedged until the watchdog fires
// must converge to the same bytes; merge validation (overlap, coverage
// gaps, config mismatch) must exit 2 naming the offender; and a shard that
// exhausts its retries must degrade to a partial merge carrying an
// explicit incomplete_shards manifest (exit 3), never a silent hole.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;   // WEXITSTATUS when the process exited normally.
  int term_signal = 0;  // WTERMSIG when it died to a signal, else 0.
  std::string output;   // Combined stdout+stderr.
};

RunResult run_cmd(const std::string& cmd) {
  RunResult r;
  const std::string full = cmd + " 2>&1";
  FILE* pipe = ::popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.term_signal = WTERMSIG(status);
  }
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Per-test scratch path; removes any leftover from a previous run (plus
/// the .shardK satellites a supervised run fans out). The current test's
/// name is baked in because ctest runs each case as its own process, often
/// concurrently — two cases sharing a scratch name would race.
std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string unique =
      info != nullptr ? std::string(info->name()) + "_" : std::string();
  const std::string path =
      ::testing::TempDir() + "distributed_" + unique + name;
  std::remove(path.c_str());
  for (int k = 0; k < 8; ++k) {
    std::remove((path + ".shard" + std::to_string(k)).c_str());
  }
  return path;
}

/// Small but multi-point grid: 3 offsets x 2 reps = 6 runs, enough that
/// every shard of a 4-way split owns at least one run.
std::string grid_args(int threads) {
  return std::string(" --envs office --mobility mobile --offsets 3 --reps 2"
                     " --duration-s 2 --quiet --threads ") +
         std::to_string(threads);
}

std::string sweep_cmd() { return SHSWEEP_BIN; }
std::string bench_cmd() { return SHBENCH_BIN; }

/// Uninterrupted single-host reference output for `extra` flags. Computed
/// fresh per call: ctest runs each case in its own process, so caching
/// across cases would buy nothing (and the grid here costs milliseconds).
std::string single_host_json(const std::string& extra) {
  const std::string out = temp_path("single_ref.json");
  const auto r =
      run_cmd(sweep_cmd() + grid_args(1) + " " + extra + " --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  return read_file(out);
}

// ---- Shard + merge byte-identity matrix ----------------------------------

void shard_merge_roundtrip(int shards, int threads) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " threads=" + std::to_string(threads));
  const std::string tag =
      std::to_string(shards) + "_" + std::to_string(threads);
  std::string merge_list;
  for (int k = 0; k < shards; ++k) {
    const std::string journal = temp_path("shard_" + tag + "_" +
                                          std::to_string(k) + ".ckpt");
    const auto r = run_cmd(sweep_cmd() + grid_args(threads) + " --shard " +
                           std::to_string(k) + "/" + std::to_string(shards) +
                           " --checkpoint " + journal);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    merge_list += " " + journal;
  }
  const std::string merged_out = temp_path("merged_" + tag + ".json");
  const auto merged = run_cmd(sweep_cmd() + grid_args(threads) + " --merge" +
                              merge_list + " --out " + merged_out);
  ASSERT_EQ(merged.exit_code, 0) << merged.output;
  EXPECT_EQ(read_file(merged_out), single_host_json(""));
}

TEST(ShardMergeTest, OneShardSingleThread) { shard_merge_roundtrip(1, 1); }
TEST(ShardMergeTest, TwoShardsSingleThread) { shard_merge_roundtrip(2, 1); }
TEST(ShardMergeTest, FourShardsSingleThread) { shard_merge_roundtrip(4, 1); }
TEST(ShardMergeTest, TwoShardsEightThreads) { shard_merge_roundtrip(2, 8); }
TEST(ShardMergeTest, FourShardsEightThreads) { shard_merge_roundtrip(4, 8); }

TEST(ShardMergeTest, ShardPartialOutputIsTaggedAndPartial) {
  const std::string journal = temp_path("partial.ckpt");
  const std::string out = temp_path("partial.json");
  const auto r = run_cmd(sweep_cmd() + grid_args(2) +
                         " --shard 1/2 --checkpoint " + journal + " --out " +
                         out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string json = read_file(out);
  // The partial output names itself a shard and can never be confused with
  // (or byte-equal to) the merged whole.
  EXPECT_NE(json.find("shsweep#shard1/2"), std::string::npos);
  EXPECT_NE(json, single_host_json(""));
}

// ---- Supervised fleets ----------------------------------------------------

TEST(SuperviseTest, KilledWorkerIsRestartedAndMergeIsByteIdentical) {
  const std::string base = temp_path("kill.ckpt");
  const std::string out = temp_path("kill.json");
  // Shard 1's first worker SIGKILLs itself after one durable record; the
  // supervisor must relaunch it resuming its journal.
  const auto r = run_cmd(sweep_cmd() + grid_args(2) +
                         " --supervise 2 --kill-shard 1:1 --backoff-ms 10" +
                         " --checkpoint " + base + " --out " + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("crashed x1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("replaying"), std::string::npos) << r.output;
  EXPECT_EQ(read_file(out), single_host_json(""));
}

TEST(SuperviseTest, SensorHintFaultsAcrossFourShardsMatchSingleHost) {
  // The CI acceptance scenario: sensor and hint faults, sharded 4 ways
  // across worker processes. Fault schedules are pure functions of the run
  // index, so the merge must reproduce the single-host bytes, fault params
  // included.
  const std::string faults =
      "--fault hint_drop_rate=0.3 --fault sensor_dropout_rate=0.2";
  const std::string base = temp_path("faults.ckpt");
  const std::string out = temp_path("faults.json");
  const auto r = run_cmd(sweep_cmd() + grid_args(2) + " " + faults +
                         " --supervise 4 --backoff-ms 10 --checkpoint " +
                         base + " --out " + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(read_file(out), single_host_json(faults));
}

TEST(SuperviseTest, WatchdogKillsAndRestartsHungWorker) {
  const std::string base = temp_path("hang.ckpt");
  const std::string out = temp_path("hang.json");
  // Shard 0's first worker wedges for 60s; the 5s watchdog must SIGKILL it
  // and the relaunch (without the stall hook) completes normally.
  const auto r = run_cmd(sweep_cmd() + grid_args(2) +
                         " --supervise 2 --stall-shard 0:60" +
                         " --worker-timeout-s 5 --backoff-ms 10" +
                         " --checkpoint " + base + " --out " + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("timed out x1"), std::string::npos) << r.output;
  EXPECT_EQ(read_file(out), single_host_json(""));
}

TEST(SuperviseTest, ExhaustedShardYieldsManifestAndExitThree) {
  const std::string base = temp_path("exhaust.ckpt");
  const std::string out = temp_path("exhaust.json");
  // Shard 0 owns 3 of the 6 runs but every attempt dies after one record:
  // 2 attempts leave 1 run missing. The merge must still emit the
  // completed prefix plus an explicit manifest, and exit 3.
  const auto r = run_cmd(sweep_cmd() + grid_args(2) +
                         " --supervise 2 --kill-shard-every 0:1" +
                         " --worker-retries 2 --backoff-ms 10" +
                         " --checkpoint " + base + " --out " + out);
  ASSERT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("EXHAUSTED"), std::string::npos) << r.output;
  const std::string json = read_file(out);
  EXPECT_NE(json.find("\"incomplete_shards\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"missing_runs\": 1"), std::string::npos) << json;
  // The healthy shard's metrics still aggregated: counts are nonzero.
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
}

// ---- Merge validation -----------------------------------------------------

/// Writes the two valid half journals most validation cases start from.
std::pair<std::string, std::string> make_two_shards(const std::string& tag) {
  const std::string a = temp_path(tag + "_a.ckpt");
  const std::string b = temp_path(tag + "_b.ckpt");
  EXPECT_EQ(run_cmd(sweep_cmd() + grid_args(2) + " --shard 0/2 --checkpoint " +
                    a).exit_code, 0);
  EXPECT_EQ(run_cmd(sweep_cmd() + grid_args(2) + " --shard 1/2 --checkpoint " +
                    b).exit_code, 0);
  return {a, b};
}

TEST(MergeValidationTest, MissingShardFailsNamingTheGap) {
  const auto [a, b] = make_two_shards("gap");
  (void)b;
  const auto r = run_cmd(sweep_cmd() + grid_args(1) + " --merge " + a);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("no journal for shard 1/2"), std::string::npos)
      << r.output;
}

TEST(MergeValidationTest, DuplicateShardFails) {
  const auto [a, b] = make_two_shards("dup");
  (void)b;
  const auto r =
      run_cmd(sweep_cmd() + grid_args(1) + " --merge " + a + " " + a);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("duplicate shard 0/2"), std::string::npos)
      << r.output;
}

TEST(MergeValidationTest, ConfigHashMismatchFails) {
  const auto [a, b] = make_two_shards("hash");
  // Same journals, different --duration-s: a different experiment entirely.
  const auto r = run_cmd(
      sweep_cmd() +
      " --envs office --mobility mobile --offsets 3 --reps 2 --duration-s 3"
      " --quiet --threads 1 --merge " + a + " " + b);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("config hash mismatch"), std::string::npos)
      << r.output;
}

TEST(MergeValidationTest, MixedShardSchemesFail) {
  const auto [a, b] = make_two_shards("mixed");
  (void)b;
  const std::string c = temp_path("mixed_c.ckpt");
  ASSERT_EQ(run_cmd(sweep_cmd() + grid_args(2) + " --shard 0/3 --checkpoint " +
                    c).exit_code, 0);
  const auto r =
      run_cmd(sweep_cmd() + grid_args(1) + " --merge " + a + " " + c);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("shard scheme"), std::string::npos) << r.output;
}

TEST(MergeValidationTest, AllowIncompleteMergesThePrefix) {
  const auto [a, b] = make_two_shards("allow");
  (void)b;
  const std::string out = temp_path("allow.json");
  const auto r = run_cmd(sweep_cmd() + grid_args(1) +
                         " --merge-allow-incomplete --merge " + a + " --out " +
                         out);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  const std::string json = read_file(out);
  EXPECT_NE(json.find("\"incomplete_shards\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\": 1"), std::string::npos) << json;
}

TEST(MergeValidationTest, TornShardTailIsDroppedAndReported) {
  const auto [a, b] = make_two_shards("torn");
  // Chop bytes off shard b's tail: its last record is torn, so the strict
  // merge sees a coverage gap inside shard 1 and names the resume remedy.
  const std::string bytes = read_file(b);
  std::ofstream os(b, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  os.close();
  const auto r =
      run_cmd(sweep_cmd() + grid_args(1) + " --merge " + a + " " + b);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("dropped"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("missing"), std::string::npos) << r.output;
}

// ---- Sharded resume contract ----------------------------------------------

TEST(ShardResumeTest, ShardJournalRefusesMismatchedShardFlag) {
  const auto [a, b] = make_two_shards("refuse");
  (void)b;
  // Resuming shard 0/2's journal unsharded, or as the wrong shard, is a
  // configuration error, not a merge.
  auto r = run_cmd(sweep_cmd() + grid_args(1) + " --resume " + a);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("shard 0/2"), std::string::npos) << r.output;
  r = run_cmd(sweep_cmd() + grid_args(1) + " --shard 1/2 --resume " + a);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("shard 0/2"), std::string::npos) << r.output;
}

TEST(ShardResumeTest, KilledShardResumesToSameBytesAsCleanShard) {
  const std::string clean_j = temp_path("shardclean.ckpt");
  const std::string clean_out = temp_path("shardclean.json");
  ASSERT_EQ(run_cmd(sweep_cmd() + grid_args(1) + " --shard 0/2 --checkpoint " +
                    clean_j + " --out " + clean_out).exit_code, 0);
  const std::string journal = temp_path("shardkill.ckpt");
  const std::string out = temp_path("shardkill.json");
  const auto killed = run_cmd(sweep_cmd() + grid_args(1) +
                              " --shard 0/2 --checkpoint " + journal +
                              " --kill-after-records 1 --out " + out);
  EXPECT_TRUE(killed.term_signal == SIGKILL ||
              killed.exit_code == 128 + SIGKILL)
      << killed.output;
  const auto resumed = run_cmd(sweep_cmd() + grid_args(1) +
                               " --shard 0/2 --resume " + journal + " --out " +
                               out);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(read_file(out), read_file(clean_out));
}

// ---- CLI hardening satellites ---------------------------------------------

TEST(CliHardeningTest, DuplicateFlagsExitTwo) {
  auto r = run_cmd(sweep_cmd() + " --reps 2 --reps 2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("duplicate flag '--reps'"), std::string::npos)
      << r.output;
  r = run_cmd(bench_cmd() + " --smoke --smoke");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("duplicate flag '--smoke'"), std::string::npos)
      << r.output;
}

TEST(CliHardeningTest, RepeatableFlagsStayRepeatable) {
  const auto r = run_cmd(
      sweep_cmd() +
      " --envs office --mobility mobile --offsets 1 --reps 1 --duration-s 1"
      " --quiet --fault hint_drop_rate=0.1 --fault sensor_dropout_rate=0.1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CliHardeningTest, ShardFlagValidation) {
  for (const char* bad : {"4/4", "0/0", "x/2", "2", "-1/2", "3/"}) {
    const auto r =
        run_cmd(sweep_cmd() + std::string(" --shard ") + bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("--shard"), std::string::npos) << r.output;
  }
}

TEST(CliHardeningTest, ConflictingModesExitTwo) {
  const auto conflicts = {
      std::string(" --merge /tmp/x.ckpt --shard 0/2"),
      std::string(" --merge /tmp/x.ckpt --checkpoint /tmp/y.ckpt"),
      std::string(" --supervise 2"),  // missing --checkpoint BASE
      std::string(" --supervise 2 --checkpoint /tmp/y.ckpt --shard 0/2"),
      std::string(" --kill-shard 0:1"),  // hook without --supervise
      std::string(" --merge-allow-incomplete"),
  };
  for (const auto& c : conflicts) {
    const auto r = run_cmd(sweep_cmd() + grid_args(1) + c);
    EXPECT_EQ(r.exit_code, 2) << c << ": " << r.output;
  }
}

}  // namespace

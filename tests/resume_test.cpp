// End-to-end crash-tolerance tests against the real shsweep binary. The
// core acceptance matrix: SIGKILL a checkpointing sweep mid-run, resume it,
// and require the merged sh.sweep.v1 output to be byte-identical to an
// uninterrupted run — at 1 and 8 threads, with the trace cache on and off.
// Also pins the CLI hardening satellites: unknown flags, malformed values
// and stale journals all exit 2 with a one-line diagnostic naming the
// offender.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;     // WEXITSTATUS when the process exited normally.
  int term_signal = 0;    // WTERMSIG when it died to a signal, else 0.
  std::string output;     // Combined stdout+stderr.
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

/// The shell wrapping popen may either surface the child's SIGKILL directly
/// or exit with 128+9 — both mean the sweep died to the kill hook.
bool was_killed(const RunResult& r) {
  return r.term_signal == SIGKILL || r.exit_code == 128 + SIGKILL;
}

bool file_exists(const std::string& path) {
  std::ifstream is(path);
  return is.good();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Per-test scratch path; removes any leftover from a previous run so the
/// "no torn output file after a kill" assertions see this run's state only.
std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "resume_" + name;
  std::remove(path.c_str());
  return path;
}

/// Small but multi-point grid: 2 offsets x 2 reps = 4 runs.
std::string grid_args(int threads, const char* cache) {
  return std::string(" --envs office --mobility mobile --offsets 2 --reps 2"
                     " --duration-s 2 --quiet --threads ") +
         std::to_string(threads) + " --trace-cache " + cache;
}

std::string sweep_cmd() { return SHSWEEP_BIN; }

// ---- Kill + resume byte-identity matrix ----------------------------------

void kill_resume_roundtrip(int threads, const char* cache) {
  SCOPED_TRACE(std::string("threads=") + std::to_string(threads) +
               " cache=" + cache);
  const std::string tag =
      std::to_string(threads) + std::string("_") + cache;
  const std::string clean_out = temp_path("clean_" + tag + ".json");
  const std::string resumed_out = temp_path("resumed_" + tag + ".json");
  const std::string journal = temp_path("journal_" + tag + ".ckpt");

  const auto clean =
      run_cmd(sweep_cmd() + grid_args(threads, cache) + " --out " + clean_out);
  ASSERT_EQ(clean.exit_code, 0) << clean.output;

  const auto killed = run_cmd(sweep_cmd() + grid_args(threads, cache) +
                              " --checkpoint " + journal +
                              " --kill-after-records 3 --out " + resumed_out);
  ASSERT_TRUE(was_killed(killed)) << "exit=" << killed.exit_code
                                  << " sig=" << killed.term_signal;
  // The kill landed before aggregation: no torn output file may exist.
  EXPECT_FALSE(file_exists(resumed_out));
  ASSERT_TRUE(file_exists(journal));

  const auto resumed = run_cmd(sweep_cmd() + grid_args(threads, cache) +
                               " --resume " + journal + " --out " + resumed_out);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("replaying"), std::string::npos)
      << resumed.output;

  EXPECT_EQ(read_file(resumed_out), read_file(clean_out));
}

TEST(KillResumeTest, SingleThreadCacheOn) { kill_resume_roundtrip(1, "on"); }
TEST(KillResumeTest, SingleThreadCacheOff) { kill_resume_roundtrip(1, "off"); }
TEST(KillResumeTest, EightThreadsCacheOn) { kill_resume_roundtrip(8, "on"); }
TEST(KillResumeTest, EightThreadsCacheOff) { kill_resume_roundtrip(8, "off"); }

TEST(KillResumeTest, SurvivesBeingKilledTwice) {
  const std::string clean_out = temp_path("twice_clean.json");
  const std::string out = temp_path("twice.json");
  const std::string journal = temp_path("twice.ckpt");

  const auto clean = run_cmd(sweep_cmd() + grid_args(2, "on") + " --out " + clean_out);
  ASSERT_EQ(clean.exit_code, 0) << clean.output;

  const auto kill1 = run_cmd(sweep_cmd() + grid_args(2, "on") +
                             " --checkpoint " + journal +
                             " --kill-after-records 1 --out " + out);
  ASSERT_TRUE(was_killed(kill1));

  // Resume, and die again after two more durable records.
  const auto kill2 = run_cmd(sweep_cmd() + grid_args(2, "on") + " --resume " +
                             journal + " --kill-after-records 2 --out " + out);
  ASSERT_TRUE(was_killed(kill2));

  const auto done = run_cmd(sweep_cmd() + grid_args(2, "on") + " --resume " +
                            journal + " --out " + out);
  ASSERT_EQ(done.exit_code, 0) << done.output;
  EXPECT_EQ(read_file(out), read_file(clean_out));
}

TEST(KillResumeTest, GarbageAppendedToJournalIsDroppedOnResume) {
  const std::string clean_out = temp_path("garbage_clean.json");
  const std::string out = temp_path("garbage.json");
  const std::string journal = temp_path("garbage.ckpt");

  const auto clean = run_cmd(sweep_cmd() + grid_args(1, "on") + " --out " + clean_out);
  ASSERT_EQ(clean.exit_code, 0) << clean.output;

  const auto killed = run_cmd(sweep_cmd() + grid_args(1, "on") +
                              " --checkpoint " + journal +
                              " --kill-after-records 2 --out " + out);
  ASSERT_TRUE(was_killed(killed));

  {
    // A torn tail in miniature: partial frame bytes after the last fsync.
    std::ofstream os(journal, std::ios::binary | std::ios::app);
    const std::string torn("\x13\x00\x00\x00torn", 8);
    os.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }

  const auto resumed = run_cmd(sweep_cmd() + grid_args(1, "on") + " --resume " +
                               journal + " --out " + out);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("corrupt tail"), std::string::npos)
      << resumed.output;
  EXPECT_EQ(read_file(out), read_file(clean_out));
}

// ---- Resume refuses mismatched or missing journals -----------------------

TEST(ResumeGuardTest, ConfigHashMismatchIsFatal) {
  const std::string journal = temp_path("mismatch.ckpt");
  const auto killed = run_cmd(sweep_cmd() + grid_args(1, "on") +
                              " --checkpoint " + journal +
                              " --kill-after-records 1");
  ASSERT_TRUE(was_killed(killed));

  // Same journal, different sweep (--duration-s changed): refuse to merge.
  const auto resumed =
      run_cmd(sweep_cmd() +
              " --envs office --mobility mobile --offsets 2 --reps 2"
              " --duration-s 3 --quiet --threads 1 --trace-cache on"
              " --resume " + journal);
  EXPECT_EQ(resumed.exit_code, 2);
  EXPECT_NE(resumed.output.find("config"), std::string::npos) << resumed.output;
}

TEST(ResumeGuardTest, FaultReorderHoldChangeIsFatal) {
  // The reorder hold changes results, so it is part of the config hash.
  const std::string journal = temp_path("hold.ckpt");
  const std::string faults = " --fault hint_reorder_rate=0.9";
  const auto killed = run_cmd(sweep_cmd() + grid_args(1, "on") + faults +
                              " --fault hint_reorder_hold_ms=100" +
                              " --checkpoint " + journal +
                              " --kill-after-records 1");
  ASSERT_TRUE(was_killed(killed));

  const auto resumed = run_cmd(sweep_cmd() + grid_args(1, "on") + faults +
                               " --fault hint_reorder_hold_ms=3000" +
                               " --resume " + journal);
  EXPECT_EQ(resumed.exit_code, 2);
  EXPECT_NE(resumed.output.find("config"), std::string::npos) << resumed.output;
}

TEST(ResumeGuardTest, MissingJournalIsFatal) {
  const auto r = run_cmd(sweep_cmd() + grid_args(1, "on") + " --resume " +
                         temp_path("no_such.ckpt"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("no_such.ckpt"), std::string::npos) << r.output;
}

TEST(ResumeGuardTest, ResumeConflictingWithCheckpointPathIsFatal) {
  const auto r = run_cmd(sweep_cmd() + " --resume a.ckpt --checkpoint b.ckpt");
  EXPECT_EQ(r.exit_code, 2);
}

// ---- CLI hardening: shsweep ----------------------------------------------

TEST(SweepCliTest, UnknownFlagNamedInDiagnostic) {
  const auto r = run_cmd(sweep_cmd() + " --frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--frobnicate"), std::string::npos) << r.output;
}

TEST(SweepCliTest, MalformedIntegerNamedInDiagnostic) {
  const auto r = run_cmd(sweep_cmd() + " --reps abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--reps"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("abc"), std::string::npos) << r.output;
}

TEST(SweepCliTest, OutOfRangeValueRejected) {
  const auto r = run_cmd(sweep_cmd() + " --threads 99999");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--threads"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("out of range"), std::string::npos) << r.output;
}

TEST(SweepCliTest, MalformedFaultPairRejected) {
  const auto missing_eq = run_cmd(sweep_cmd() + " --fault hint_drop_rate");
  EXPECT_EQ(missing_eq.exit_code, 2);
  EXPECT_NE(missing_eq.output.find("hint_drop_rate"), std::string::npos);

  const auto bad_key = run_cmd(sweep_cmd() + " --fault bogus_key=0.5");
  EXPECT_EQ(bad_key.exit_code, 2);
  EXPECT_NE(bad_key.output.find("bogus_key"), std::string::npos);

  const auto bad_val =
      run_cmd(sweep_cmd() + " --fault sensor_dropout_rate=soon");
  EXPECT_EQ(bad_val.exit_code, 2);
  EXPECT_NE(bad_val.output.find("soon"), std::string::npos);
}

TEST(SweepCliTest, RemovedSupervisorFlagsExitTwo) {
  // Point-supervisor flags, exec-fault keys and the approximate-fading
  // switch are not part of the CLI: each is an ordinary one-line usage
  // error naming the offender.
  const struct {
    const char* args;
    const char* named;
  } cases[] = {{" --retries 2", "--retries"},
               {" --sim-budget-s 1", "--sim-budget-s"},
               {" --watchdog-ms 5", "--watchdog-ms"},
               {" --fault exec_crash_rate=0.1", "exec_crash_rate"},
               {" --fast-trace", "--fast-trace"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    const auto r = run_cmd(sweep_cmd() + c.args);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find(c.named), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1) << r.output;
  }
}

TEST(SweepCliTest, BadTraceCacheModeRejected) {
  const auto r = run_cmd(sweep_cmd() + " --trace-cache maybe");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("maybe"), std::string::npos) << r.output;
}

TEST(SweepCliTest, HelpExitsZero) {
  const auto r = run_cmd(sweep_cmd() + " --help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--resume"), std::string::npos);
  EXPECT_NE(r.output.find("--checkpoint"), std::string::npos);
}

}  // namespace

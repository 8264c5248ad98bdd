// Tests for the crash-tolerance layer: checkpoint journal (sh.ckpt.v1) and
// the engine's resume path.
//
// The corruption cases pin the journal's recovery contract: a truncated
// tail record, a CRC bit-flip mid-file, and a stale sweep-config hash are
// each *detected* (never silently replayed) and *recovered from* (the
// verified prefix replays, everything after the damage re-runs, and the
// resumed result is byte-identical to an uninterrupted sweep).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/sweep.h"
#include "util/fsio.h"
#include "util/rng.h"

namespace {

using sh::exp::CheckpointHeader;
using sh::exp::CheckpointLoad;
using sh::exp::CheckpointWriter;
using sh::exp::MetricSample;
using sh::exp::RunContext;
using sh::exp::RunOptions;
using sh::exp::RunRecord;
using sh::exp::SweepPoint;
using sh::exp::SweepRunner;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ckpt_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// A record with bit-exact-awkward doubles: non-terminating fractions and
/// negative zero must round-trip the journal exactly.
RunRecord make_record(std::uint64_t run_index) {
  RunRecord rec;
  rec.run_index = run_index;
  rec.sample.set("throughput_mbps", 1.0 / 3.0 + static_cast<double>(run_index));
  rec.sample.set("delivery", 0.1 * static_cast<double>(run_index));
  rec.sample.set("neg_zero", -0.0);
  return rec;
}

CheckpointHeader make_header(std::uint64_t total_runs) {
  CheckpointHeader h;
  h.config_hash = 0xDEADBEEFCAFEF00DULL;
  h.base_seed = 7;
  h.total_runs = total_runs;
  return h;
}

std::string write_journal(const std::string& name, int n_records,
                          std::uint64_t total_runs) {
  const std::string path = temp_path(name);
  CheckpointWriter w;
  EXPECT_TRUE(w.create(path, make_header(total_runs)));
  for (int i = 0; i < n_records; ++i) w.append(make_record(i));
  EXPECT_EQ(w.records_appended(), static_cast<std::uint64_t>(n_records));
  EXPECT_FALSE(w.write_failed());
  w.close();
  return path;
}

// ---- CRC32 and config hash ----------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(sh::exp::crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, SensitiveToEveryByte) {
  const std::string data(64, 'a');
  const std::uint32_t base = sh::exp::crc32(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = 'b';
    EXPECT_NE(sh::exp::crc32(flipped.data(), flipped.size()), base) << i;
  }
}

std::vector<SweepPoint> small_grid() {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 3; ++i) {
    SweepPoint p;
    p.label = "point" + std::to_string(i);
    p.params = {{"k", std::to_string(i)}};
    p.repetitions = 2;
    points.push_back(p);
  }
  return points;
}

TEST(ConfigHashTest, DiscriminatesEveryComponent) {
  const auto points = small_grid();
  const auto base = sh::exp::sweep_config_hash(points, 1, 0);
  EXPECT_EQ(sh::exp::sweep_config_hash(points, 1, 0), base);

  EXPECT_NE(sh::exp::sweep_config_hash(points, 2, 0), base);  // base seed
  EXPECT_NE(sh::exp::sweep_config_hash(points, 1, 9), base);  // caller extra

  auto relabeled = points;
  relabeled[1].label = "pointX";
  EXPECT_NE(sh::exp::sweep_config_hash(relabeled, 1, 0), base);

  auto reparam = points;
  reparam[0].params[0].second = "42";
  EXPECT_NE(sh::exp::sweep_config_hash(reparam, 1, 0), base);

  auto rereps = points;
  rereps[2].repetitions = 3;
  EXPECT_NE(sh::exp::sweep_config_hash(rereps, 1, 0), base);

  auto fewer = points;
  fewer.pop_back();
  EXPECT_NE(sh::exp::sweep_config_hash(fewer, 1, 0), base);
}

TEST(ConfigHashTest, TotalRunCountClampsReps) {
  auto points = small_grid();
  EXPECT_EQ(sh::exp::total_run_count(points), 6u);
  points[0].repetitions = 0;  // clamps to 1
  EXPECT_EQ(sh::exp::total_run_count(points), 5u);
}

// ---- Journal round-trip ---------------------------------------------------

TEST(JournalTest, RoundTripsRecordsBitExactly) {
  const std::string path = write_journal("roundtrip.ckpt", 5, 10);
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_FALSE(load.truncated);
  EXPECT_EQ(load.dropped_bytes, 0u);
  EXPECT_EQ(load.header.config_hash, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(load.header.base_seed, 7u);
  EXPECT_EQ(load.header.total_runs, 10u);
  ASSERT_EQ(load.records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const RunRecord expect = make_record(i);
    const RunRecord& got = load.records[i];
    EXPECT_EQ(got.run_index, expect.run_index);
    ASSERT_EQ(got.sample.entries().size(), expect.sample.entries().size());
    for (std::size_t m = 0; m < expect.sample.entries().size(); ++m) {
      EXPECT_EQ(got.sample.entries()[m].first, expect.sample.entries()[m].first);
      // Bit comparison, not ==: -0.0 must stay -0.0.
      std::uint64_t gb = 0;
      std::uint64_t eb = 0;
      std::memcpy(&gb, &got.sample.entries()[m].second, 8);
      std::memcpy(&eb, &expect.sample.entries()[m].second, 8);
      EXPECT_EQ(gb, eb) << got.sample.entries()[m].first;
    }
  }
}

TEST(JournalTest, EmptyJournalLoadsHeaderOnly) {
  const std::string path = write_journal("empty.ckpt", 0, 4);
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.records.empty());
  EXPECT_FALSE(load.truncated);
}

TEST(JournalTest, MissingFileReportsError) {
  const CheckpointLoad load =
      sh::exp::load_checkpoint(temp_path("does_not_exist.ckpt"));
  EXPECT_FALSE(load.ok);
  EXPECT_FALSE(load.error.empty());
}

TEST(JournalTest, GarbageFileReportsBadMagic) {
  const std::string path = temp_path("garbage.ckpt");
  write_file(path, "this is not a checkpoint journal at all, sorry");
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("sh.ckpt.v1"), std::string::npos);
}

// ---- Corruption: truncated tail ------------------------------------------

TEST(JournalCorruptionTest, TruncatedTailRecordDetectedAndDropped) {
  const std::string path = write_journal("trunc.ckpt", 4, 8);
  const std::string full = read_file(path);
  // Chop into the last record: a mid-append SIGKILL in miniature.
  write_file(path, full.substr(0, full.size() - 7));
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.truncated);
  ASSERT_EQ(load.records.size(), 3u);  // Tail record dropped, prefix intact.
  EXPECT_GT(load.dropped_bytes, 0u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(load.records[i].run_index, static_cast<std::uint64_t>(i));
}

TEST(JournalCorruptionTest, TruncationInsideLengthPrefixHandled) {
  const std::string path = write_journal("trunc2.ckpt", 2, 4);
  const std::string full = read_file(path);
  const CheckpointLoad pristine = sh::exp::load_checkpoint(path);
  const std::uint64_t one_record_end =
      pristine.valid_bytes -
      (pristine.valid_bytes - 40) / 2;  // end of record 0 (equal-size records)
  // Leave 3 bytes of record 1's frame header — not even a full length field.
  write_file(path, full.substr(0, one_record_end + 3));
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.truncated);
  EXPECT_EQ(load.records.size(), 1u);
}

// ---- Corruption: CRC bit-flip mid-file -----------------------------------

TEST(JournalCorruptionTest, CrcBitFlipMidFileStopsReplayAtDamage) {
  const std::string path = write_journal("bitflip.ckpt", 5, 10);
  const CheckpointLoad pristine = sh::exp::load_checkpoint(path);
  ASSERT_EQ(pristine.records.size(), 5u);
  const std::uint64_t record_size = (pristine.valid_bytes - 40) / 5;

  // Flip one payload bit in record 2 of 5.
  std::string bytes = read_file(path);
  const std::size_t victim = 40 + static_cast<std::size_t>(record_size) * 2 + 12;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x10);
  write_file(path, bytes);

  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.truncated);
  // Records 0-1 replay; the damaged record AND everything after it re-run —
  // framing past a corrupt record is untrusted, so nothing is silently kept.
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].run_index, 0u);
  EXPECT_EQ(load.records[1].run_index, 1u);
  EXPECT_EQ(load.dropped_bytes, record_size * 3);
}

TEST(JournalCorruptionTest, OversizedLengthPrefixIsCorruptionNotARecord) {
  const std::string path = write_journal("hugeframe.ckpt", 1, 2);
  std::string bytes = read_file(path);
  // Overwrite record 0's length with 0x7FFFFFFF.
  bytes[40] = '\xFF';
  bytes[41] = '\xFF';
  bytes[42] = '\xFF';
  bytes[43] = '\x7F';
  write_file(path, bytes);
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok);
  EXPECT_TRUE(load.truncated);
  EXPECT_TRUE(load.records.empty());
}

TEST(JournalCorruptionTest, RecordIndexBeyondTotalRunsRejected) {
  const std::string path = temp_path("badindex.ckpt");
  CheckpointWriter w;
  ASSERT_TRUE(w.create(path, make_header(2)));
  w.append(make_record(0));
  w.append(make_record(5));  // Impossible index for total_runs = 2.
  w.close();
  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok);
  EXPECT_TRUE(load.truncated);
  ASSERT_EQ(load.records.size(), 1u);
}

// ---- Resumed writer extends a clean prefix -------------------------------

TEST(JournalTest, OpenResumedTruncatesCorruptTailThenAppends) {
  const std::string path = write_journal("extend.ckpt", 3, 6);
  std::string bytes = read_file(path);
  write_file(path, bytes + "torn-tail-garbage");

  const CheckpointLoad load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok);
  EXPECT_TRUE(load.truncated);
  ASSERT_EQ(load.records.size(), 3u);

  CheckpointWriter w;
  ASSERT_TRUE(w.open_resumed(path, load.valid_bytes));
  w.append(make_record(3));
  w.close();

  const CheckpointLoad reload = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(reload.ok);
  EXPECT_FALSE(reload.truncated);  // Garbage gone, clean prefix + new record.
  ASSERT_EQ(reload.records.size(), 4u);
  EXPECT_EQ(reload.records[3].run_index, 3u);
}

// ---- Atomic file write ----------------------------------------------------

TEST(AtomicWriteTest, ReplacesContentAndLeavesNoTemp) {
  const std::string path = temp_path("atomic.json");
  ASSERT_TRUE(sh::util::atomic_write_file(path, "first"));
  ASSERT_TRUE(sh::util::atomic_write_file(path, "second"));
  EXPECT_EQ(read_file(path), "second");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(AtomicWriteTest, FailsCleanlyOnBadDirectory) {
  EXPECT_FALSE(sh::util::atomic_write_file(
      "/nonexistent-dir-for-sure/x.json", "data"));
}

// ---- Engine-level checkpoint + resume ------------------------------------

/// Deterministic, cheap run function with several metrics.
MetricSample engine_fn(const SweepPoint&, const RunContext& ctx) {
  MetricSample s;
  sh::util::Rng rng(ctx.seed);
  s.set("a", rng.uniform());
  s.set("b", rng.normal());
  return s;
}

std::vector<SweepPoint> engine_grid() {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 4; ++i) {
    SweepPoint p;
    p.label = "g";
    p.label += std::to_string(i);
    p.params = {{"i", std::to_string(i)}};
    p.repetitions = 3;
    points.push_back(p);
  }
  return points;
}

std::string clean_json(int threads) {
  SweepRunner runner({"ckpt_engine", 11, threads});
  return runner.run(engine_grid(), engine_fn).to_json();
}

TEST(EngineResumeTest, JournalingDoesNotChangeResults) {
  const std::string path = temp_path("engine_journal.ckpt");
  CheckpointWriter w;
  ASSERT_TRUE(w.create(path, make_header(12)));
  RunOptions opts;
  opts.journal = &w;
  SweepRunner runner({"ckpt_engine", 11, 2});
  const auto result = runner.run(engine_grid(), engine_fn, opts);
  w.close();
  EXPECT_EQ(result.to_json(), clean_json(1));
  const auto load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok);
  EXPECT_EQ(load.records.size(), 12u);  // Every repetition journaled.
}

TEST(EngineResumeTest, ReplayedRecordsSkipTheRunFunction) {
  const std::string path = temp_path("engine_partial.ckpt");
  {
    CheckpointWriter w;
    ASSERT_TRUE(w.create(path, make_header(12)));
    // Journal runs 0-6 by hand, as a killed sweep would have.
    SweepRunner runner({"ckpt_engine", 11, 1});
    RunOptions opts;
    opts.journal = &w;
    auto partial = engine_grid();
    // Run the full grid but only journal the first 7 completions via a
    // fn that mirrors engine_fn; simplest faithful setup: full run, then
    // truncate the journal to 7 records below.
    runner.run(partial, engine_fn, opts);
  }
  auto load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok);
  ASSERT_EQ(load.records.size(), 12u);
  load.records.resize(7);  // Pretend the kill landed after 7 records.

  int fresh_calls = 0;
  RunOptions opts;
  opts.resume = &load.records;
  SweepRunner runner({"ckpt_engine", 11, 1});
  const auto result = runner.run(
      engine_grid(),
      [&fresh_calls](const SweepPoint& p, const RunContext& ctx) {
        ++fresh_calls;
        return engine_fn(p, ctx);
      },
      opts);
  EXPECT_EQ(fresh_calls, 5);  // 12 total - 7 replayed.
  EXPECT_EQ(result.to_json(), clean_json(1));
}

TEST(EngineResumeTest, ResumeAfterCorruptionReRunsDamagedRecords) {
  const std::string path = temp_path("engine_corrupt.ckpt");
  {
    CheckpointWriter w;
    ASSERT_TRUE(w.create(path, make_header(12)));
    RunOptions opts;
    opts.journal = &w;
    SweepRunner runner({"ckpt_engine", 11, 2});
    runner.run(engine_grid(), engine_fn, opts);
  }
  // Flip a bit mid-journal.
  std::string bytes = read_file(path);
  const std::size_t victim = 40 + (bytes.size() - 40) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x01);
  write_file(path, bytes);

  const auto load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok);
  EXPECT_TRUE(load.truncated);
  EXPECT_LT(load.records.size(), 12u);

  RunOptions opts;
  opts.resume = &load.records;
  SweepRunner runner({"ckpt_engine", 11, 4});
  const auto result = runner.run(engine_grid(), engine_fn, opts);
  EXPECT_EQ(result.to_json(), clean_json(1));
}

/// Journals the full engine grid at one thread, so records land in run-index
/// order, and returns the journal's bytes.
std::string engine_journal_bytes(const std::string& path) {
  CheckpointWriter w;
  EXPECT_TRUE(w.create(path, make_header(12)));
  RunOptions opts;
  opts.journal = &w;
  SweepRunner runner({"ckpt_engine", 11, 1});
  runner.run(engine_grid(), engine_fn, opts);
  w.close();
  return read_file(path);
}

/// Overwrites byte `offset` of record `record`'s payload and re-seals the
/// frame's CRC, so only the payload check can reject it. Engine-grid records
/// all have the same size.
void patch_payload_byte(std::string& bytes, std::size_t record,
                        std::size_t offset, char value) {
  const std::size_t frame_size = (bytes.size() - 40) / 12;
  const std::size_t frame = 40 + frame_size * record;
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + frame, sizeof len);
  ASSERT_EQ(len + 8, frame_size);
  bytes[frame + 8 + offset] = value;
  const std::uint32_t crc = sh::exp::crc32(bytes.data() + frame + 8, len);
  std::memcpy(bytes.data() + frame + 4, &crc, sizeof crc);
}

/// A CRC-valid record whose status or attempts byte is not the fixed value
/// (a retried or failed run journaled by an older build) ends the verified
/// prefix; resuming re-runs it and everything after it.
void expect_record_rejected_and_rerun(const std::string& name,
                                      std::size_t offset, char value) {
  const std::string path = temp_path(name);
  std::string bytes = engine_journal_bytes(path);
  patch_payload_byte(bytes, 5, offset, value);
  write_file(path, bytes);

  const auto load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.truncated);
  ASSERT_EQ(load.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(load.records[i].run_index, i);
  }
  EXPECT_EQ(load.dropped_frames, 6u);  // Records 6-11 are intact but dropped.

  int fresh_calls = 0;
  RunOptions opts;
  opts.resume = &load.records;
  SweepRunner runner({"ckpt_engine", 11, 2});
  const auto result = runner.run(
      engine_grid(),
      [&fresh_calls](const SweepPoint& p, const RunContext& ctx) {
        ++fresh_calls;
        return engine_fn(p, ctx);
      },
      opts);
  EXPECT_EQ(fresh_calls, 7);  // Record 5 onward re-runs.
  EXPECT_EQ(result.to_json(), clean_json(1));
}

TEST(JournalCorruptionTest, StatusByteOtherThanZeroEndsVerifiedPrefix) {
  expect_record_rejected_and_rerun("status2.ckpt", 8, 2);
}

TEST(JournalCorruptionTest, AttemptsByteOtherThanOneEndsVerifiedPrefix) {
  expect_record_rejected_and_rerun("attempts3.ckpt", 9, 3);
}

TEST(EngineResumeTest, ThrowingRunPropagatesAfterJournalingTheRest) {
  const std::string path = temp_path("engine_throw.ckpt");
  CheckpointWriter w;
  ASSERT_TRUE(w.create(path, make_header(12)));
  RunOptions opts;
  opts.journal = &w;
  SweepRunner runner({"ckpt_engine", 11, 2});
  EXPECT_THROW(
      runner.run(
          engine_grid(),
          [](const SweepPoint& p, const RunContext& ctx) {
            if (ctx.run_index == 7) throw std::runtime_error("boom");
            return engine_fn(p, ctx);
          },
          opts),
      std::runtime_error);
  w.close();

  // The batch drained: every other repetition is durable.
  const auto load = sh::exp::load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_FALSE(load.truncated);
  ASSERT_EQ(load.records.size(), 11u);
  for (const auto& rec : load.records) EXPECT_NE(rec.run_index, 7u);

  int fresh_calls = 0;
  RunOptions ropts;
  ropts.resume = &load.records;
  SweepRunner runner2({"ckpt_engine", 11, 1});
  const auto resumed = runner2.run(
      engine_grid(),
      [&fresh_calls](const SweepPoint& p, const RunContext& ctx) {
        ++fresh_calls;
        return engine_fn(p, ctx);
      },
      ropts);
  EXPECT_EQ(fresh_calls, 1);
  EXPECT_EQ(resumed.to_json(), clean_json(1));
}

TEST(EngineResumeTest, UnsupervisedJsonHasNoRunStatus) {
  EXPECT_EQ(clean_json(1).find("run_status"), std::string::npos);
}

}  // namespace

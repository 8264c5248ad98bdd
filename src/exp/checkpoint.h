// Checkpoint journal (`sh.ckpt.v1`): crash-tolerant persistence for sweeps.
//
// A journal is a 40-byte header followed by a sequence of length-prefixed,
// CRC32-guarded records, one per completed repetition:
//
//   header   magic "SHCKPT1\n" · u32 version · u32 reserved ·
//            u64 config_hash · u64 base_seed · u64 total_runs
//   record   u32 payload_len · u32 crc32(payload) · payload
//   payload  u64 run_index · u8 status (always 0) · u8 attempts (always 1) ·
//            u16 metric_count ·
//            metric_count × { u16 name_len · name bytes · u64 value_bits }
//
// Durability contract: the header is written via write-temp + fsync +
// atomic-rename (util::atomic_write_file), and every record is appended
// with a single write(2) followed by fsync(2). A SIGKILL at any instant
// therefore leaves a valid header plus N intact records and at most one
// torn tail record, which the loader detects (short frame, bad CRC, or
// malformed payload) and drops — interrupted repetitions re-run on resume,
// they are never silently replayed from garbage.
//
// Determinism contract: metric values are stored as raw IEEE-754 bits, so a
// replayed record reproduces the original sample exactly and a resumed
// sweep's JSON is byte-identical to an uninterrupted run. `config_hash`
// binds a journal to the sweep grid that wrote it (labels, params,
// repetitions, base seed, and caller extras — NOT the thread count or cache
// mode, which never affect results); resuming under a different
// configuration is refused instead of quietly mixing incompatible runs.
// Multi-byte fields are host-endian: a journal is a local crash-recovery
// artifact, not an interchange format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace sh::exp {

/// CRC-32 (IEEE 802.3, reflected). Exposed for corruption tests.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

/// FNV-1a over the sweep's identity: base seed, every point's label, params
/// and repetitions, plus `extra` for caller-level knobs that change results
/// without appearing in the grid (shsweep mixes in trace duration and the
/// staleness watermark). Thread count and trace-cache mode are deliberately
/// excluded — a journal written at --threads 8 resumes fine at --threads 1.
std::uint64_t sweep_config_hash(const std::vector<SweepPoint>& points,
                                std::uint64_t base_seed,
                                std::uint64_t extra = 0) noexcept;

struct CheckpointHeader {
  std::uint32_t version = 1;
  std::uint64_t config_hash = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t total_runs = 0;
  /// Distributed-sweep shard tag, packed into the header word that was
  /// reserved (and written as zero) before sharding existed: shard_count 0
  /// means an unsharded journal — old journals load as unsharded, old
  /// loaders ignore the tag. A `--shard K/N` worker records K/N here;
  /// `total_runs` stays the FULL grid size (the run-index domain), the
  /// shard owns only indices with run_index % shard_count == shard_index.
  std::uint16_t shard_index = 0;
  std::uint16_t shard_count = 0;
};

/// Result of reading a journal back. `ok` covers the header only; a file
/// with a corrupt tail still loads (`truncated` set, bad bytes counted in
/// `dropped_bytes`, verified records in `records`).
struct CheckpointLoad {
  bool ok = false;
  std::string error;  ///< Set when !ok.
  CheckpointHeader header;
  std::vector<RunRecord> records;  ///< CRC-verified, well-formed records.
  bool truncated = false;     ///< A torn/corrupt tail was detected and dropped.
  std::uint64_t valid_bytes = 0;    ///< Prefix length covering header+records.
  std::uint64_t dropped_bytes = 0;  ///< Bytes past the verified prefix.
  /// Whole, CRC-valid frames found past the first corrupt record during a
  /// diagnostic rescan. They are still dropped (framing past a corrupt
  /// record is untrusted), but the count makes a resume or merge that
  /// re-runs that work explainable instead of silent.
  std::uint64_t dropped_frames = 0;
};

/// Loads and verifies a journal. When a torn or corrupt tail is dropped the
/// loader says so on stderr — one line naming the path, the byte/frame
/// counts, and the offset — so every caller (resume, merge, tests) surfaces
/// re-run work to the operator without having to remember to report it.
CheckpointLoad load_checkpoint(const std::string& path);

/// Append-side of the journal. Thread-safe: the engine calls `append` from
/// pool workers as repetitions complete (journal order is scheduling-
/// dependent; replay keys on run_index, so resumed output stays
/// deterministic).
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Starts a fresh journal at `path`: header via atomic rename, then the
  /// file is held open for record appends.
  bool create(const std::string& path, const CheckpointHeader& header);

  /// Reopens a journal whose first `valid_bytes` were verified by
  /// load_checkpoint; any unverified tail is truncated away so new records
  /// extend a clean prefix.
  bool open_resumed(const std::string& path, std::uint64_t valid_bytes);

  bool is_open() const noexcept { return fd_ >= 0; }
  /// True once any append failed; later appends are dropped (the sweep
  /// still completes, the journal is just shorter).
  bool write_failed() const noexcept;
  std::uint64_t records_appended() const noexcept;

  /// Serializes `rec`, appends it in one write(2), fsyncs.
  void append(const RunRecord& rec);

  /// Test hook for the kill-resume pin: after `n` successful appends the
  /// process raises SIGKILL — a real, uncatchable mid-run death at a
  /// deterministic record count.
  void set_kill_after(std::uint64_t n) noexcept { kill_after_ = n; }

  void close();

 private:
  mutable std::mutex mutex_;
  int fd_ = -1;
  bool write_failed_ = false;
  std::uint64_t appended_ = 0;
  std::uint64_t kill_after_ = 0;
};

}  // namespace sh::exp

#include "exp/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/fsio.h"

namespace sh::exp {
namespace {

constexpr char kMagic[8] = {'S', 'H', 'C', 'K', 'P', 'T', '1', '\n'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 8;
constexpr std::uint32_t kVersion = 1;
/// Frames claiming more than this are treated as corruption, not records:
/// a torn length prefix must not make the loader try to slurp gigabytes.
constexpr std::uint32_t kMaxPayload = 1u << 20;
/// The payload's status and attempts bytes. Every journaled run is a
/// first-attempt success, so the writer emits these fixed values; the loader
/// treats any other value (a run recorded as retried, timed out or failed)
/// as a malformed record, so it re-runs instead of replaying.
constexpr std::uint8_t kStatusByte = 0;
constexpr std::uint8_t kAttemptsByte = 1;

void put_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

template <typename T>
void put(std::string& out, T v) {
  put_bytes(out, &v, sizeof v);
}

template <typename T>
bool get(const std::string& buf, std::size_t& off, T& v) {
  if (buf.size() - off < sizeof v) return false;
  std::memcpy(&v, buf.data() + off, sizeof v);
  off += sizeof v;
  return true;
}

std::string encode_header(const CheckpointHeader& h) {
  std::string out;
  out.reserve(kHeaderSize);
  put_bytes(out, kMagic, sizeof kMagic);
  put<std::uint32_t>(out, h.version);
  // The word reserved (always zero) before sharding existed now carries the
  // shard tag; count 0 keeps meaning "unsharded", so the format stays v1.
  put<std::uint16_t>(out, h.shard_index);
  put<std::uint16_t>(out, h.shard_count);
  put<std::uint64_t>(out, h.config_hash);
  put<std::uint64_t>(out, h.base_seed);
  put<std::uint64_t>(out, h.total_runs);
  return out;
}

std::string encode_payload(const RunRecord& rec) {
  std::string p;
  put<std::uint64_t>(p, rec.run_index);
  put<std::uint8_t>(p, kStatusByte);
  put<std::uint8_t>(p, kAttemptsByte);
  const auto& entries = rec.sample.entries();
  put<std::uint16_t>(p, static_cast<std::uint16_t>(entries.size()));
  for (const auto& [name, value] : entries) {
    put<std::uint16_t>(p, static_cast<std::uint16_t>(name.size()));
    put_bytes(p, name.data(), name.size());
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    put<std::uint64_t>(p, bits);
  }
  return p;
}

/// Parses one payload; false on any malformed field (caller treats the
/// whole frame as corrupt).
bool decode_payload(const std::string& payload, std::uint64_t total_runs,
                    RunRecord& rec) {
  std::size_t off = 0;
  std::uint8_t status = 0;
  std::uint8_t attempts = 0;
  std::uint16_t count = 0;
  if (!get(payload, off, rec.run_index) || !get(payload, off, status) ||
      !get(payload, off, attempts) || !get(payload, off, count)) {
    return false;
  }
  if (rec.run_index >= total_runs || status != kStatusByte ||
      attempts != kAttemptsByte) {
    return false;
  }
  rec.sample = MetricSample{};
  for (std::uint16_t m = 0; m < count; ++m) {
    std::uint16_t name_len = 0;
    if (!get(payload, off, name_len)) return false;
    if (payload.size() - off < name_len) return false;
    const std::string name(payload.data() + off, name_len);
    off += name_len;
    std::uint64_t bits = 0;
    if (!get(payload, off, bits)) return false;
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    rec.sample.set(name, value);
  }
  return off == payload.size();
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  // Table-driven CRC-32 (IEEE), table built once on first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t sweep_config_hash(const std::vector<SweepPoint>& points,
                                std::uint64_t base_seed,
                                std::uint64_t extra) noexcept {
  constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h = kOffset;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= kPrime;
  };
  const auto mix_u64 = [&mix_byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  const auto mix_str = [&mix_byte, &mix_u64](const std::string& s) {
    mix_u64(s.size());
    for (char c : s) mix_byte(static_cast<unsigned char>(c));
  };
  mix_u64(base_seed);
  mix_u64(extra);
  mix_u64(points.size());
  for (const auto& p : points) {
    mix_str(p.label);
    mix_u64(p.params.size());
    for (const auto& [k, v] : p.params) {
      mix_str(k);
      mix_str(v);
    }
    mix_u64(static_cast<std::uint64_t>(p.repetitions < 1 ? 1 : p.repetitions));
  }
  return h;
}

CheckpointLoad load_checkpoint(const std::string& path) {
  CheckpointLoad out;
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    out.error = "cannot open checkpoint file";
    return out;
  }
  std::string buf((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
  if (buf.size() < kHeaderSize ||
      std::memcmp(buf.data(), kMagic, sizeof kMagic) != 0) {
    out.error = "not a sh.ckpt.v1 journal (bad magic or short header)";
    return out;
  }
  std::size_t off = sizeof kMagic;
  get(buf, off, out.header.version);
  get(buf, off, out.header.shard_index);
  get(buf, off, out.header.shard_count);
  get(buf, off, out.header.config_hash);
  get(buf, off, out.header.base_seed);
  get(buf, off, out.header.total_runs);
  if (out.header.version != kVersion) {
    out.error = "unsupported journal version";
    return out;
  }
  out.ok = true;
  out.valid_bytes = kHeaderSize;

  while (off < buf.size()) {
    const std::size_t frame_start = off;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!get(buf, off, len) || !get(buf, off, crc) || len > kMaxPayload ||
        buf.size() - off < len) {
      out.truncated = true;  // Torn frame: the kill landed mid-append.
      break;
    }
    const std::string payload = buf.substr(off, len);
    off += len;
    RunRecord rec;
    if (crc32(payload.data(), payload.size()) != crc ||
        !decode_payload(payload, out.header.total_runs, rec)) {
      // Bit-flip or garbage inside a full-length frame. Everything past a
      // corrupt record is untrusted — framing may be desynchronized — so
      // recovery drops the rest of the file and re-runs those repetitions.
      out.truncated = true;
      off = frame_start;
      break;
    }
    out.records.push_back(std::move(rec));
    out.valid_bytes = off;
  }
  out.dropped_bytes = buf.size() - out.valid_bytes;
  if (!out.truncated) out.dropped_bytes = 0;
  if (out.truncated) {
    // Diagnostic rescan: walk the dropped region frame-by-frame and count
    // the whole, CRC-valid records in it. They stay dropped — framing past
    // a corrupt record is untrusted — but "~N frame(s)" tells the operator
    // how much completed work a resume or merge is about to re-run.
    std::size_t scan = out.valid_bytes;
    while (scan < buf.size()) {
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      std::size_t p = scan;
      if (!get(buf, p, len) || !get(buf, p, crc) || len > kMaxPayload ||
          buf.size() - p < len) {
        break;
      }
      const std::string payload = buf.substr(p, len);
      RunRecord rec;
      if (crc32(payload.data(), payload.size()) != crc ||
          !decode_payload(payload, out.header.total_runs, rec)) {
        // Skip one frame-shaped blob and keep scanning: a single bit flip
        // should not hide every intact record behind it.
        scan = p + len;
        continue;
      }
      ++out.dropped_frames;
      scan = p + len;
    }
    std::fprintf(stderr,
                 "[sh.ckpt: %s: dropped %llu trailing byte(s) (%llu intact "
                 "frame(s) among them) after a torn or corrupt record at "
                 "offset %llu; those repetitions will re-run]\n",
                 path.c_str(),
                 static_cast<unsigned long long>(out.dropped_bytes),
                 static_cast<unsigned long long>(out.dropped_frames),
                 static_cast<unsigned long long>(out.valid_bytes));
  }
  return out;
}

CheckpointWriter::~CheckpointWriter() { close(); }

bool CheckpointWriter::create(const std::string& path,
                              const CheckpointHeader& header) {
  close();
  // Header lands atomically: any previous journal at `path` stays intact
  // until the fresh one is fully durable.
  if (!util::atomic_write_file(path, encode_header(header))) return false;
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  return fd_ >= 0;
}

bool CheckpointWriter::open_resumed(const std::string& path,
                                    std::uint64_t valid_bytes) {
  close();
  if (valid_bytes < kHeaderSize) return false;
  fd_ = ::open(path.c_str(), O_WRONLY);
  if (fd_ < 0) return false;
  // Drop the unverified tail so appended records extend a clean prefix.
  if (::ftruncate(fd_, static_cast<::off_t>(valid_bytes)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0 || !util::sync_fd(fd_)) {
    close();
    return false;
  }
  return true;
}

bool CheckpointWriter::write_failed() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failed_;
}

std::uint64_t CheckpointWriter::records_appended() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

void CheckpointWriter::append(const RunRecord& rec) {
  const std::string payload = encode_payload(rec);
  std::string frame;
  frame.reserve(8 + payload.size());
  put<std::uint32_t>(frame, static_cast<std::uint32_t>(payload.size()));
  put<std::uint32_t>(frame, crc32(payload.data(), payload.size()));
  frame += payload;

  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0 || write_failed_) return;
  // One write(2) per record narrows the torn-record window to a single
  // syscall; the loader's CRC catches whatever still lands torn.
  const char* p = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      write_failed_ = true;
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (!util::sync_fd(fd_)) {
    write_failed_ = true;
    return;
  }
  ++appended_;
  if (kill_after_ != 0 && appended_ >= kill_after_) {
    // Kill-resume test hook: die for real, mid-sweep, with exactly N
    // durable records behind us.
    std::raise(SIGKILL);
  }
}

void CheckpointWriter::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sh::exp

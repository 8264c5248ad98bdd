#include "vanet/spatial_hash.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "exp/thread_pool.h"

namespace sh::vanet {

namespace {

/// Occupied cells per sharded-scan block. Fixed (never derived from the
/// thread count) so the block decomposition is identical no matter how many
/// workers execute it.
constexpr std::size_t kCellBlock = 1024;

/// Key distance between a cell and the one directly above it (pack()).
constexpr std::uint64_t kRowStride = std::uint64_t{1} << 32;

/// pack() biases each cell coordinate by 2^31 into 32 bits, so cells must
/// lie in [-2^31, 2^31).
constexpr std::int64_t kCellBias = std::int64_t{1} << 31;

/// Widest radix digit: its count array (16 KiB) stays in L1.
constexpr unsigned kMaxDigitBits = 11;

/// Stable LSD radix sort of `items` by key(item), which must be below
/// 2^key_bits. Runs ceil(key_bits / 11) passes of equal digit width, so no
/// pass covers bits that are zero in every key; the passes ping-pong
/// between `items` and `scratch` and the result ends in `items`. Stability
/// is what the callers lean on: items that tie on the key keep their input
/// order.
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& items, std::vector<T>& scratch,
                unsigned key_bits, KeyFn key) {
  if (key_bits == 0 || items.size() < 2) return;
  const unsigned passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t digits = std::size_t{1} << digit_bits;
  const std::uint64_t mask = digits - 1;
  std::array<std::size_t, std::size_t{1} << kMaxDigitBits> count{};
  scratch.resize(items.size());
  for (unsigned shift = 0; shift < key_bits; shift += digit_bits) {
    std::fill_n(count.begin(), digits, std::size_t{0});
    for (const T& item : items) ++count[(key(item) >> shift) & mask];
    std::size_t offset = 0;
    for (std::size_t d = 0; d < digits; ++d) {
      offset += std::exchange(count[d], offset);
    }
    for (const T& item : items) {
      scratch[count[(key(item) >> shift) & mask]++] = item;
    }
    items.swap(scratch);
  }
}

}  // namespace

SpatialHash::SpatialHash(double cell_m) : cell_m_(cell_m) {
  if (!(cell_m > 0.0)) {
    throw std::invalid_argument("SpatialHash: cell_m must be > 0");
  }
}

std::uint64_t SpatialHash::pack(std::int64_t ix, std::int64_t iy) noexcept {
  return (static_cast<std::uint64_t>(iy + kCellBias) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix + kCellBias));
}

void SpatialHash::build(const std::vector<VehicleState>& snapshot) {
  const std::size_t n = snapshot.size();
  // The empty index, which a rejected position leaves behind.
  cell_keys_.clear();
  cell_begin_.assign(1, 0);
  members_.clear();
  sorted_pos_.clear();

  // Each vehicle's cell key, and the spread of the keys' two 32-bit halves.
  const auto cell_of = [this](double v) {
    constexpr auto kLimit = static_cast<double>(kCellBias);
    const double cell = std::floor(v / cell_m_);
    // Negated so that NaN (and so a non-finite position) fails too.
    if (!(cell >= -kLimit && cell < kLimit)) {
      throw std::out_of_range(
          "SpatialHash::build: position not finite or beyond 2^31 cells");
    }
    return static_cast<std::int64_t>(cell);
  };
  vehicle_key_.resize(n);
  std::uint32_t min_x = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t min_y = min_x;
  std::uint32_t max_x = 0;
  std::uint32_t max_y = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = pack(cell_of(snapshot[i].position.x),
                                   cell_of(snapshot[i].position.y));
    vehicle_key_[i] = key;
    const auto x = static_cast<std::uint32_t>(key);
    const auto y = static_cast<std::uint32_t>(key >> 32);
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  if (n == 0) return;

  // Sort ids by (iy - min_iy, ix - min_ix), packed into just the bits the
  // spread needs. Ids go in ascending and the sort is stable, so ids come
  // out ascending within each cell: exactly (cell key, id) order.
  const auto x_bits = static_cast<unsigned>(std::bit_width(max_x - min_x));
  const auto y_bits = static_cast<unsigned>(std::bit_width(max_y - min_y));
  members_.resize(n);
  std::iota(members_.begin(), members_.end(), 0);
  radix_sort(members_, sort_buffer_, x_bits + y_bits, [&](int id) {
    const std::uint64_t key = vehicle_key_[static_cast<std::size_t>(id)];
    return (((key >> 32) - min_y) << x_bits) |
           (static_cast<std::uint32_t>(key) - min_x);
  });

  // One pass in member order: the cell boundaries, and each member's
  // position gathered next to its cellmates for the scan.
  sorted_pos_.resize(n);
  cell_keys_.push_back(vehicle_key_[static_cast<std::size_t>(members_[0])]);
  for (std::size_t m = 0; m < n; ++m) {
    const auto id = static_cast<std::size_t>(members_[m]);
    sorted_pos_[m] = snapshot[id].position;
    if (vehicle_key_[id] != cell_keys_.back()) {
      cell_keys_.push_back(vehicle_key_[id]);
      cell_begin_.push_back(m);
    }
  }
  cell_begin_.push_back(n);
}

void SpatialHash::scan_cells(std::size_t lo, std::size_t hi, double range_m,
                             unsigned id_bits,
                             std::vector<std::uint64_t>& out) const {
  const std::size_t cells = cell_keys_.size();
  const auto id = [&](std::size_t m) { return members_[m]; };
  // distance(p, q) <= range_m, mostly without std::hypot. The squared
  // distance sq and hypot's result squared differ by a few ulps, so sq
  // below `near` is certainly in range and sq above `far` certainly not:
  // the band between them is 1e-12 wide, relatively. Only a pair inside
  // the band pays for hypot, which decides it exactly as distance() does.
  // Outside [1e-140, 1e140] m, underflow or overflow of sq could break
  // that argument, so there the band is everything.
  const bool banded = range_m >= 1e-140 && range_m <= 1e140;
  const double r2 = range_m * range_m;
  const double near = banded ? r2 * (1.0 - 1e-12) : -1.0;
  const double far =
      banded ? r2 * (1.0 + 1e-12) : std::numeric_limits<double>::infinity();
  const auto in_range = [&](const Vec2& p, const Vec2& q) {
    const double dx = p.x - q.x;
    const double dy = p.y - q.y;
    const double sq = dx * dx + dy * dy;
    if (sq < near) return true;
    if (sq > far) return false;
    return distance(p, q) <= range_m;
  };
  // Every member of cell c against every member of cell d; within one cell
  // (c == d) only j > i, so each pair is tested once.
  const auto scan_pair = [&](std::size_t c, std::size_t d) {
    for (std::size_t i = cell_begin_[c]; i < cell_begin_[c + 1]; ++i) {
      for (std::size_t j = c == d ? i + 1 : cell_begin_[d];
           j < cell_begin_[d + 1]; ++j) {
        if (in_range(sorted_pos_[i], sorted_pos_[j])) {
          const auto a = static_cast<std::uint64_t>(std::min(id(i), id(j)));
          const auto b = static_cast<std::uint64_t>(std::max(id(i), id(j)));
          out.push_back(a << id_bits | b);
        }
      }
    }
  };

  // First cell whose key is >= the current cell's upper-left neighbor; the
  // target rises with the key, so the cursor only moves forward. Cells are
  // compared by how far their key lies past `key`: key + kRowStride + 1
  // would wrap past 2^64 next to the top row and skip the row above. The
  // window also matches a row's far end (stride - 1 past its first column);
  // the distance test rejects those pairs.
  std::size_t above = lo;
  for (std::size_t c = lo; c < hi; ++c) {
    const std::uint64_t key = cell_keys_[c];
    scan_pair(c, c);
    // East neighbor (ix + 1, iy): the next occupied key, if it is key + 1.
    if (c + 1 < cells && cell_keys_[c + 1] == key + 1) scan_pair(c, c + 1);
    // Row above (ix - 1 .. ix + 1, iy + 1): up to three consecutive keys.
    above = std::max(above, c + 1);
    while (above < cells && cell_keys_[above] - key < kRowStride - 1) ++above;
    for (std::size_t d = above;
         d < cells && cell_keys_[d] - key <= kRowStride + 1; ++d) {
      scan_pair(c, d);
    }
  }
}

std::vector<VehiclePair> SpatialHash::pairs_within(
    const std::vector<VehicleState>& snapshot, double range_m,
    exp::ThreadPool* pool) const {
  // Negated so that NaN fails too: a radius beyond the cell would silently
  // miss pairs two cells apart.
  if (!(range_m <= cell_m_)) {
    throw std::invalid_argument(
        "SpatialHash::pairs_within: range_m must be <= cell_m");
  }
  const std::size_t cells = cell_keys_.size();
  const std::size_t blocks = (cells + kCellBlock - 1) / kCellBlock;
  // Bits for every id below n.
  const unsigned id_bits =
      snapshot.size() > 1
          ? static_cast<unsigned>(std::bit_width(snapshot.size() - 1))
          : 0;

  // A pair is found from exactly one cell, so the blocks' outputs are
  // disjoint; concatenating them in block order and sorting once makes the
  // result independent of the block decomposition and of scheduling.
  std::vector<std::vector<std::uint64_t>> parts(blocks);
  const auto scan_block = [&](std::size_t block) {
    const std::size_t lo = block * kCellBlock;
    scan_cells(lo, std::min(cells, lo + kCellBlock), range_m, id_bits,
               parts[block]);
  };
  if (pool != nullptr && pool->thread_count() > 1 && blocks > 1) {
    pool->parallel_for(blocks, scan_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) scan_block(block);
  }

  std::vector<std::uint64_t> packed;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  packed.reserve(total);
  for (const auto& part : parts) {
    packed.insert(packed.end(), part.begin(), part.end());
  }
  // (a << id_bits | b) orders exactly as (a, b), and every pair is distinct.
  std::vector<std::uint64_t> scratch;
  radix_sort(packed, scratch, 2 * id_bits,
             [](std::uint64_t pair) { return pair; });

  const std::uint64_t b_mask = (std::uint64_t{1} << id_bits) - 1;
  std::vector<VehiclePair> out;
  out.reserve(total);
  for (const std::uint64_t pair : packed) {
    out.emplace_back(static_cast<int>(pair >> id_bits),
                     static_cast<int>(pair & b_mask));
  }
  return out;
}

}  // namespace sh::vanet

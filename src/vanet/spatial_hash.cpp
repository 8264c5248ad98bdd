#include "vanet/spatial_hash.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "exp/thread_pool.h"

namespace sh::vanet {

namespace {

/// Occupied cells per sharded-scan block. Fixed (never derived from the
/// thread count) so the block decomposition is identical no matter how many
/// workers execute it.
constexpr std::size_t kCellBlock = 1024;

/// Key distance between a cell and the one directly above it (pack()).
constexpr std::uint64_t kRowStride = std::uint64_t{1} << 32;

}  // namespace

SpatialHash::SpatialHash(double cell_m) : cell_m_(cell_m) {
  assert(cell_m > 0.0);
}

std::uint64_t SpatialHash::pack(std::int64_t ix, std::int64_t iy) noexcept {
  // Bias into unsigned halves; cities are nowhere near 2^31 cells across.
  constexpr std::int64_t kBias = std::int64_t{1} << 31;
  return (static_cast<std::uint64_t>(iy + kBias) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix + kBias));
}

std::int64_t SpatialHash::cell_of(double v) const noexcept {
  return static_cast<std::int64_t>(std::floor(v / cell_m_));
}

void SpatialHash::build(const std::vector<VehicleState>& snapshot) {
  const std::size_t n = snapshot.size();
  // (cell key, vehicle id), sorted: groups members by cell with ids
  // ascending inside each cell — the order the scan below leans on.
  members_.clear();
  members_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    members_.emplace_back(pack(cell_of(snapshot[i].position.x),
                               cell_of(snapshot[i].position.y)),
                          static_cast<int>(i));
  }
  std::sort(members_.begin(), members_.end());

  cell_keys_.clear();
  cell_begin_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || members_[i].first != members_[i - 1].first) {
      cell_keys_.push_back(members_[i].first);
      cell_begin_.push_back(i);
    }
  }
  cell_begin_.push_back(n);
}

void SpatialHash::scan_cells(std::size_t lo, std::size_t hi,
                             const std::vector<VehicleState>& snapshot,
                             double range_m,
                             std::vector<VehiclePair>& out) const {
  const std::size_t cells = cell_keys_.size();
  const auto id = [&](std::size_t m) { return members_[m].second; };
  const auto position = [&](std::size_t m) -> const Vec2& {
    return snapshot[static_cast<std::size_t>(id(m))].position;
  };
  // Every member of cell c against every member of cell d; within one cell
  // (c == d) only j > i, so each pair is tested once.
  const auto scan_pair = [&](std::size_t c, std::size_t d) {
    for (std::size_t i = cell_begin_[c]; i < cell_begin_[c + 1]; ++i) {
      for (std::size_t j = c == d ? i + 1 : cell_begin_[d];
           j < cell_begin_[d + 1]; ++j) {
        if (distance(position(i), position(j)) <= range_m) {
          out.emplace_back(std::min(id(i), id(j)), std::max(id(i), id(j)));
        }
      }
    }
  };

  // First cell whose key is >= the current cell's upper-left neighbor; the
  // target rises with the key, so the cursor only moves forward.
  std::size_t above = lo;
  for (std::size_t c = lo; c < hi; ++c) {
    const std::uint64_t key = cell_keys_[c];
    scan_pair(c, c);
    // East neighbor (ix + 1, iy): the next occupied key, if it is key + 1.
    if (c + 1 < cells && cell_keys_[c + 1] == key + 1) scan_pair(c, c + 1);
    // Row above (ix - 1 .. ix + 1, iy + 1): up to three consecutive keys.
    while (above < cells && cell_keys_[above] < key + kRowStride - 1) ++above;
    for (std::size_t d = above;
         d < cells && cell_keys_[d] <= key + kRowStride + 1; ++d) {
      scan_pair(c, d);
    }
  }
}

std::vector<VehiclePair> SpatialHash::pairs_within(
    const std::vector<VehicleState>& snapshot, double range_m,
    exp::ThreadPool* pool) const {
  assert(range_m <= cell_m_);
  const std::size_t cells = cell_keys_.size();
  const std::size_t blocks = (cells + kCellBlock - 1) / kCellBlock;

  // A pair is found from exactly one cell, so the blocks' outputs are
  // disjoint; concatenating them in block order and sorting once makes the
  // result independent of the block decomposition and of scheduling.
  std::vector<std::vector<VehiclePair>> parts(blocks);
  const auto scan_block = [&](std::size_t block) {
    const std::size_t lo = block * kCellBlock;
    scan_cells(lo, std::min(cells, lo + kCellBlock), snapshot, range_m,
               parts[block]);
  };
  if (pool != nullptr && pool->thread_count() > 1 && blocks > 1) {
    pool->parallel_for(blocks, scan_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) scan_block(block);
  }

  std::vector<VehiclePair> out;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sh::vanet

// Uniform-grid spatial index over vehicle positions.
//
// The ≤100 m link rule makes proximity the hot query of every vehicular
// experiment; the O(n²) all-pairs scan that was fine for the paper's
// 100-taxi testbed is hopeless at city scale. This index buckets vehicles
// into square cells whose side equals the query radius, so a pair in range
// can only span one cell or two touching ones, and the whole pair set costs
// O(n + pairs).
//
// The scan is cell-major over a half stencil: each occupied cell, in sorted
// key order, is paired with itself, with its east neighbor, and with the
// three cells of the row above. Every touching cell pair is visited once,
// from its lower-keyed side, so no pair is tested twice and no lookup needs
// a binary search: the east neighbor is the next key, and the row above is
// found by a cursor that only moves forward.
//
// Both sorts — vehicles by cell in build(), found pairs by (a, b) in
// pairs_within() — are one stable LSD radix sort whose passes stop at the
// bit width of the keys' spread, so a step is linear in vehicles plus pairs.
//
// Determinism contract (DESIGN.md "Determinism contract"): the pair list is
// returned sorted by (a, b) vehicle id. The sharded scan splits the cells
// into fixed-size blocks (never sized from the thread count), concatenates
// the block outputs in block order and sorts once, so the serial and pooled
// paths run the same code and return identical bytes at any thread count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "vanet/traffic_sim.h"

namespace sh::exp {
class ThreadPool;
}

namespace sh::vanet {

/// An unordered-in-meaning but deterministically ordered (a < b) vehicle
/// pair within query range.
using VehiclePair = std::pair<int, int>;

class SpatialHash {
 public:
  /// `cell_m` is the grid pitch; queries are exact for any radius <= cell_m
  /// (the stencil below assumes it). The usual choice is cell_m == the link
  /// radius. Throws std::invalid_argument unless cell_m > 0 (NaN included).
  explicit SpatialHash(double cell_m);

  /// Rebuilds the index over `snapshot` (vehicle id = index). Throws
  /// std::out_of_range, leaving the index empty, if a position is not
  /// finite or lies beyond ±2^31 cells on either axis.
  void build(const std::vector<VehicleState>& snapshot);

  /// Every pair (a < b) with distance(a, b) <= range_m, sorted by (a, b).
  /// Requires a preceding build() over the same snapshot (the scan reads
  /// the positions build() gathered, `snapshot` only for its size); throws
  /// std::invalid_argument unless range_m <= cell_m (NaN included). With a
  /// pool, the scan shards over fixed-size cell blocks; the result is
  /// byte-identical to the serial scan.
  std::vector<VehiclePair> pairs_within(
      const std::vector<VehicleState>& snapshot, double range_m,
      exp::ThreadPool* pool = nullptr) const;

  double cell_m() const noexcept { return cell_m_; }
  std::size_t num_cells() const noexcept { return cell_keys_.size(); }

  /// The index itself, for tests: occupied cell keys ascending (see pack()),
  /// each cell's offset into members() plus a final end offset, and the
  /// vehicle ids grouped by cell, ascending within a cell.
  const std::vector<std::uint64_t>& cell_keys() const noexcept {
    return cell_keys_;
  }
  const std::vector<std::size_t>& cell_begin() const noexcept {
    return cell_begin_;
  }
  const std::vector<int>& members() const noexcept { return members_; }

 private:
  /// Packed cell coordinate, each biased by 2^31 into 32 bits: (iy, ix)
  /// lexicographic order, so the east neighbor of key k is k + 1 and the
  /// cell above is k + 2^32. Requires both in [-2^31, 2^31).
  static std::uint64_t pack(std::int64_t ix, std::int64_t iy) noexcept;

  /// Appends the in-range pairs found from cells [lo, hi) of the half
  /// stencil, unsorted, each packed as (a << id_bits) | b.
  void scan_cells(std::size_t lo, std::size_t hi, double range_m,
                  unsigned id_bits, std::vector<std::uint64_t>& out) const;

  double cell_m_;
  std::vector<std::uint64_t> cell_keys_;  ///< Sorted unique occupied cells.
  std::vector<std::size_t> cell_begin_;   ///< Offsets into members_ (+1 entry).
  /// Vehicle ids sorted by cell key, ids ascending within a cell.
  std::vector<int> members_;
  /// members_[m]'s position, gathered by build() so that the scan reads
  /// each cell's positions contiguously instead of one random snapshot
  /// load per member.
  std::vector<Vec2> sorted_pos_;
  /// build() scratch, members so their storage is reused across calls: each
  /// vehicle's cell key (indexed by id) and the radix sort's second buffer.
  std::vector<std::uint64_t> vehicle_key_;
  std::vector<int> sort_buffer_;
};

}  // namespace sh::vanet

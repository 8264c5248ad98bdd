// Bounded, thread-safe memoization of a pure function's results.
//
// The caller names each input by a canonical byte-exact key string (the
// append_key_* helpers below serialize integers and doubles for it) and
// passes the pure function that computes the value on a miss. Values are
// handed out as shared_ptr<const> snapshots, which makes a hit safe to
// consume from any pool worker. channel::TraceCache (generated traces), the
// hinted runner's detector cache and bench_fault_degradation's hint-free
// replays are its instantiations.
//
// Determinism: a cached value equals a freshly computed one (same pure
// function, same key), so hits, misses, and evictions can never change
// output — they change only how often the function runs. Eviction is FIFO
// by first insertion; under a thread pool the insertion order may vary with
// scheduling, which affects only which keys get recomputed, never the
// values.
//
// Two bounds hold the resident set: an entry count (enforced when a key is
// inserted) and a byte budget (enforced when a value completes). A value's
// footprint is charged under the lock once its computation returns; an
// in-flight entry weighs 0 bytes because its size is not known yet. A cache
// built without a footprint function charges nothing, so its
// resident_bytes stays 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <future>
#include <iterator>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

namespace sh::util {

/// Appends `v` to a cache key as 8 little-endian bytes.
inline void append_key_u64(std::string& key, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void append_key_i64(std::string& key, std::int64_t v) {
  append_key_u64(key, static_cast<std::uint64_t>(v));
}

/// Raw IEEE-754 bits: the key must distinguish every value the function
/// could see (including -0.0 vs 0.0 — they may behave identically
/// downstream, but a false split only costs a duplicate entry, never
/// correctness).
inline void append_key_double(std::string& key, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  append_key_u64(key, bits);
}

/// Concurrent get_or_compute calls for the same key compute the value once:
/// the first caller publishes an in-flight future under the lock and
/// computes outside it, later callers wait on that future instead of
/// duplicating the work.
template <class Value>
class MemoCache {
 public:
  using Ptr = std::shared_ptr<const Value>;
  /// Bytes a resident value holds; nullptr charges 0.
  using Footprint = std::size_t (*)(const Value&);

  static constexpr std::size_t kNoByteBudget =
      std::numeric_limits<std::size_t>::max();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Footprint of the completed values now resident (0 without a
    /// footprint function).
    std::size_t resident_bytes = 0;
  };

  /// `capacity` is the maximum number of resident values; 0 disables
  /// caching (get_or_compute degenerates to plain compute()). After a value
  /// completes, the oldest completed entries are evicted while the resident
  /// footprint exceeds `byte_budget`. The value that just completed is no
  /// exception: one larger than the whole budget is handed to the callers
  /// already waiting on it and then dropped.
  explicit MemoCache(std::size_t capacity,
                     std::size_t byte_budget = kNoByteBudget,
                     Footprint footprint = nullptr)
      : capacity_(capacity), byte_budget_(byte_budget), footprint_(footprint) {}

  /// Returns the value for `key`, calling `compute()` (which returns a
  /// Value) on first request. Exceptions from compute() propagate to every
  /// caller waiting on that key and leave the cache without the entry.
  template <class Compute>
  Ptr get_or_compute(const std::string& key, Compute&& compute) {
    std::promise<Ptr> promise;
    std::shared_future<Ptr> future;
    std::uint64_t serial = 0;  // Nonzero: this caller computes the value.
    bool bypass = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (capacity_ == 0) {  // Caching disabled: plain computation, no stats.
        bypass = true;
      } else {
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
          ++stats_.hits;
          future = it->second.future;
        } else {
          ++stats_.misses;
          serial = ++last_serial_;
          future = promise.get_future().share();
          order_.push_back(key);
          entries_.emplace(key,
                           Entry{future, std::prev(order_.end()), serial, 0});
          evict_to_capacity_locked();
        }
      }
    }
    if (bypass) return std::make_shared<const Value>(compute());
    if (serial == 0) return future.get();  // Waits if still in flight.

    Ptr value;
    try {
      value = std::make_shared<const Value>(compute());
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the poisoned entry so a later, fixed caller can retry; waiters
      // already holding the future still see the exception. It was never
      // charged, so the resident bytes stay as they are.
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = find_own_locked(key, serial);
      if (it != entries_.end()) {
        order_.erase(it->second.order_it);
        entries_.erase(it);
      }
      throw;
    }
    promise.set_value(value);
    const std::size_t bytes = footprint_ != nullptr ? footprint_(*value) : 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = find_own_locked(key, serial);
    if (it != entries_.end()) {  // Not evicted or cleared meanwhile.
      it->second.bytes = bytes;
      stats_.resident_bytes += bytes;
      evict_to_budget_locked();
    }
    return value;
  }

  std::size_t capacity() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
  }

  /// Shrinking below the resident count evicts oldest-first immediately.
  void set_capacity(std::size_t capacity) {
    const std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    if (capacity_ > 0) evict_to_capacity_locked();
    // capacity 0 bypasses the map entirely; drop what is resident.
    if (capacity_ == 0) {
      entries_.clear();
      order_.clear();
      stats_.resident_bytes = 0;
    }
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Drops every resident value and zeroes the stats.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    order_.clear();
    stats_ = Stats{};
  }

  Stats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    std::shared_future<Ptr> future;
    std::list<std::string>::iterator order_it;
    std::uint64_t serial;  ///< Tells this insertion from a later one.
    std::size_t bytes;     ///< 0 while in flight.
  };
  using EntryMap = std::map<std::string, Entry>;

  /// The entry the caller holding `serial` inserted under `key`, or end()
  /// once it has been evicted or cleared. Requires lock.
  typename EntryMap::iterator find_own_locked(const std::string& key,
                                              std::uint64_t serial) {
    const auto it = entries_.find(key);
    return it != entries_.end() && it->second.serial == serial ? it
                                                               : entries_.end();
  }

  void evict_locked(typename EntryMap::iterator it) {
    stats_.resident_bytes -= it->second.bytes;
    order_.erase(it->second.order_it);
    entries_.erase(it);
    ++stats_.evictions;
  }

  /// Pops insertion-order entries until size() <= capacity. Requires lock.
  void evict_to_capacity_locked() {
    while (entries_.size() > capacity_ && !order_.empty()) {
      evict_locked(entries_.find(order_.front()));
    }
  }

  /// Evicts the oldest completed entries while the resident bytes exceed
  /// the budget. In-flight entries weigh nothing, so evicting them could not
  /// help. Requires lock.
  void evict_to_budget_locked() {
    auto key = order_.begin();
    while (stats_.resident_bytes > byte_budget_ && key != order_.end()) {
      const auto it = entries_.find(*key++);
      if (it->second.bytes > 0) evict_locked(it);
    }
  }

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t byte_budget_;
  Footprint footprint_;
  EntryMap entries_;
  std::list<std::string> order_;  ///< FIFO eviction order (oldest first).
  std::uint64_t last_serial_ = 0;
  Stats stats_;
};

}  // namespace sh::util

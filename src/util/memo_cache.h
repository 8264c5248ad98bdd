// Bounded, thread-safe memoization of a pure function's results.
//
// The caller names each input by a canonical byte-exact key string (the
// append_key_* helpers below serialize integers and doubles for it) and
// passes the pure function that computes the value on a miss. Values are
// handed out as shared_ptr<const> snapshots, which makes a hit safe to
// consume from any pool worker. channel::TraceCache (generated traces) and
// the hinted runner's detector cache are the two instantiations.
//
// Determinism: a cached value equals a freshly computed one (same pure
// function, same key), so hits, misses, and evictions can never change
// output — they change only how often the function runs. Eviction is FIFO
// by first insertion; under a thread pool the insertion order may vary with
// scheduling, which affects only which keys get recomputed, never the
// values.
#pragma once

#include <cstdint>
#include <cstring>
#include <exception>
#include <future>
#include <iterator>
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

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` is the maximum number of resident values; 0 disables
  /// caching (get_or_compute degenerates to plain compute()).
  explicit MemoCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the value for `key`, calling `compute()` (which returns a
  /// Value) on first request. Exceptions from compute() propagate to every
  /// caller waiting on that key and leave the cache without the entry.
  template <class Compute>
  Ptr get_or_compute(const std::string& key, Compute&& compute) {
    std::promise<Ptr> promise;
    std::shared_future<Ptr> future;
    bool owner = false;
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
          owner = true;
          future = promise.get_future().share();
          order_.push_back(key);
          entries_.emplace(key, Entry{future, std::prev(order_.end())});
          evict_to_capacity_locked();
        }
      }
    }
    if (bypass) return std::make_shared<const Value>(compute());
    if (!owner) return future.get();  // Waits if still in flight.

    try {
      auto value = std::make_shared<const Value>(compute());
      promise.set_value(value);
      return value;
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the poisoned entry so a later, fixed caller can retry; waiters
      // already holding the future still see the exception.
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        order_.erase(it->second.order_it);
        entries_.erase(it);
      }
      throw;
    }
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
  };

  /// Pops insertion-order entries until size() <= capacity. Requires lock.
  void evict_to_capacity_locked() {
    while (entries_.size() > capacity_ && !order_.empty()) {
      entries_.erase(order_.front());
      order_.pop_front();
      ++stats_.evictions;
    }
  }

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> order_;  ///< FIFO eviction order (oldest first).
  Stats stats_;
};

}  // namespace sh::util

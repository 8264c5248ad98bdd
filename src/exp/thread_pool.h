// Fork-join thread pool for the experiment engine.
//
// parallel_for runs an indexed batch on the calling thread plus
// thread_count() - 1 persistent workers. Every thread claims the next index
// from one shared counter, so no thread idles while an index is unclaimed.
// After a batch a worker polls for a bounded spin budget before it blocks:
// a batch that follows soon finds it awake, and an idle pool costs no CPU.
// Scheduling order is NOT deterministic — determinism is the caller's job:
// every task must write only to its own pre-allocated result slot and draw
// randomness only from a seed derived from its index
// (util::Rng::derive_seed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sh::exp {

class ThreadPool {
 public:
  /// Runs batches on the caller plus `threads` - 1 spawned workers; 0 means
  /// std::thread::hardware_concurrency(). A pool of 1 runs tasks inline,
  /// which keeps `--threads 1` runs trivially debuggable.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return thread_count_; }

  /// Runs fn(0) ... fn(n-1), distributed over the threads, and blocks until
  /// every task finished. If any task throws, the first exception (in
  /// completion order) is rethrown here after the batch drains; the
  /// remaining tasks still run.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void run_claims();  ///< Runs unclaimed indices of the open batch.
  /// Polls `ready` for the spin budget, then blocks on cv_ until it holds.
  template <class Ready>
  void await(Ready ready);
  void wake();  ///< Wakes the threads blocked in await().

  int thread_count_;
  std::vector<std::thread> workers_;
  /// Batch sequence number (high 32 bits, odd while the batch is open) and
  /// the number of workers inside the batch (low 32 bits).
  std::atomic<std::uint64_t> state_{0};
  std::atomic<std::size_t> next_{0};  ///< Next unclaimed index.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t size_ = 0;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;  ///< Guards the cv_ waits and first_error_.
  std::condition_variable cv_;
  std::exception_ptr first_error_;
};

}  // namespace sh::exp

#include "exp/thread_pool.h"

#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sh::exp {
namespace {

// Polls before a thread blocks. city_vanet's serial work between its two
// batches (snapshot, SpatialHash::build) takes 0.25-0.4 ms, and 2^14
// _mm_pause took 338 us on a 4-core AVX-512 Xeon VM, so a worker stays
// awake across that gap and sleeps after about a third of a millisecond
// idle. Counted in pauses (yields off x86): src/ reads no clock (shlint D1).
constexpr int kSpinBudget = 1 << 14;

constexpr std::uint64_t kSeqOne = std::uint64_t{1} << 32;
constexpr std::uint64_t kJoinedMask = kSeqOne - 1;

bool is_open(std::uint64_t state) { return ((state >> 32) & 1) != 0; }

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  thread_count_ = threads;
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  wake();
  for (auto& w : workers_) w.join();
}

// A blocking waiter checks `ready` under mutex_ and lets go of it only by
// sleeping on cv_. wake() takes mutex_ after the write that makes `ready`
// hold, so the waiter either sees that write or sleeps when notify_all runs.
template <class Ready>
void ThreadPool::await(Ready ready) {
  for (int i = 0; i < kSpinBudget; ++i) {
    if (ready()) return;
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, ready);
}

void ThreadPool::wake() {
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

// Why no thread runs a stale fn or claims an index of another batch: a
// worker enters a batch only by a CAS that adds one to the joined count of
// an open state_, leaves it by subtracting that one again, and touches
// job_, size_ and next_ only in between. The caller closes a batch by a CAS
// that needs a joined count of 0, so once it is closed no worker is inside
// and none can enter. Only then does parallel_for return (fn may die) and
// the next call rewrite job_, size_ and next_. Joins and leaves are RMWs on
// state_, so opening the batch happens before every join, and every task
// happens before the close.
void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  job_ = &fn;
  size_ = n;
  next_.store(0, std::memory_order_relaxed);
  state_.fetch_add(kSeqOne);  // open: the sequence number turns odd
  wake();
  run_claims();
  std::uint64_t state = 0;
  do {
    await([&] { return ((state = state_.load()) & kJoinedMask) == 0; });
  } while (!state_.compare_exchange_strong(state, state + kSeqOne));
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, {}));
}

void ThreadPool::run_claims() {
  for (std::size_t i = next_++; i < size_; i = next_++) {
    try {
      (*job_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // sequence number of the last batch joined
  for (;;) {
    std::uint64_t state = 0;
    await([&] {
      state = state_.load();
      return stop_.load() || (is_open(state) && (state >> 32) != seen);
    });
    if (stop_.load()) return;
    if (!state_.compare_exchange_strong(state, state + 1)) continue;
    seen = state >> 32;
    run_claims();
    if (((state_.fetch_sub(1) - 1) & kJoinedMask) == 0) wake();
  }
}

}  // namespace sh::exp

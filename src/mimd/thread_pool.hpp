// A shared-memory thread pool — the MIMD multiprocessor substrate.
//
// The paper's multi-core baseline (Section 2.3, [13]) stores aircraft data
// in shared memory that all processors access, executing asynchronously.
// This pool reproduces that execution style: worker threads pull index
// chunks dynamically (so completion order is nondeterministic, like a real
// MIMD machine under OS scheduling), and the ATM MIMD backend layers real
// mutex-striped locking over the shared flight database on top of it.
//
// On this reproduction host the pool also *works* as a real parallel
// substrate; the modeled 16-core Xeon timing comes from xeon_model.hpp fed
// with the work and contention counters the execution produces.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/core/sync/mutex.hpp"

namespace atm::mimd {

/// Fixed-size worker pool with dynamically scheduled parallel_for.
class ThreadPool {
 public:
  /// Spin up `workers` threads (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Run fn(i) for every i in [begin, end), split into `chunk`-sized units
  /// claimed dynamically by the workers. Blocks until all iterations are
  /// done. Exceptions from fn terminate (kernel-boundary noexcept policy).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t chunk,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<int> active{0};  ///< Workers currently holding the job.
  };

  void worker_loop();

  std::vector<std::thread> threads_;
  sync::Mutex mutex_;
  // The condition variables carry no state of their own; every variable
  // they signal about is guarded below. Waits go through
  // MutexLock::native_handle() so the capability stays held across them.
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* job_ ATM_GUARDED_BY(mutex_) = nullptr;          ///< Current job, if any.
  std::size_t job_generation_ ATM_GUARDED_BY(mutex_) = 0;
  bool stop_ ATM_GUARDED_BY(mutex_) = false;
};

/// Lock acquisitions and observed contention (try_lock failures) summed
/// over every stripe; they feed the Xeon contention model.
struct LockCounts {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
};

/// A set of striped mutexes guarding a shared array: index i is protected
/// by stripe i % stripes. Each stripe counts its own acquisitions and
/// contention under its own mutex, on its own cache line, so counting adds
/// no shared write beyond the lock itself.
///
/// Lock-contract note: which *data* stripe i protects is a dynamic,
/// per-element property (slot i of whatever array the caller shards), so
/// it cannot be expressed as an ATM_GUARDED_BY annotation — the static
/// layer proves with_lock's acquire/release balance, and the TSan stress
/// suite covers the element-to-stripe mapping discipline.
class StripedLocks {
 public:
  explicit StripedLocks(std::size_t stripes = 64);

  /// Lock the stripe for index i, run fn, unlock. Returns through fn.
  template <typename F>
  void with_lock(std::size_t i, F&& fn) {
    Stripe& s = stripes_[i % stripes_.size()];
    if (!s.mutex.try_lock()) {
      s.mutex.lock();
      ++s.contended;
    }
    ++s.acquisitions;
    fn();
    s.mutex.unlock();
  }

  /// Sum every stripe's counters and zero them, one stripe lock at a time.
  /// Exact once the with_lock calls being counted have returned.
  LockCounts take_counts();

 private:
  struct alignas(64) Stripe {
    sync::Mutex mutex;
    std::uint64_t acquisitions ATM_GUARDED_BY(mutex) = 0;
    std::uint64_t contended ATM_GUARDED_BY(mutex) = 0;
  };

  std::vector<Stripe> stripes_;
};

}  // namespace atm::mimd

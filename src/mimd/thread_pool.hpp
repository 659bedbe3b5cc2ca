// A shared-memory thread pool — the MIMD multiprocessor substrate.
//
// The paper's multi-core baseline (Section 2.3, [13]) stores aircraft data
// in shared memory that all processors access, executing asynchronously.
// This pool reproduces that execution style: worker threads pull index
// chunks dynamically (so completion order is nondeterministic, like a real
// MIMD machine under OS scheduling). The ATM MIMD backend runs every task
// on it over the shared flight database, giving each write one owner; it
// takes no lock on task data and charges [13]'s locks from counts instead
// (src/atm/mimd_backend.hpp).
//
// On this reproduction host the pool also *works* as a real parallel
// substrate; the modeled 16-core Xeon timing comes from xeon_model.hpp fed
// with the work counters the execution produces.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
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

}  // namespace atm::mimd

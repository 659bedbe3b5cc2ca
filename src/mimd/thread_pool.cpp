#include "src/mimd/thread_pool.hpp"

#include <algorithm>

#include "src/core/check.hpp"

namespace atm::mimd {

ThreadPool::ThreadPool(unsigned workers) {
  unsigned n = workers;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const sync::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t chunk,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  Job job;
  job.begin = begin;
  job.end = end;
  job.chunk = std::max<std::size_t>(1, chunk);
  job.fn = &fn;
  job.next.store(begin);

  {
    const sync::MutexLock lock(mutex_);
    job_ = &job;
    ++job_generation_;
  }
  cv_work_.notify_all();

  // The calling thread helps, so the pool makes progress even on a
  // single-core host.
  for (;;) {
    const std::size_t start = job.next.fetch_add(job.chunk);
    if (start >= end) break;
    const std::size_t stop = std::min(end, start + job.chunk);
    for (std::size_t i = start; i < stop; ++i) (*job.fn)(i);
    job.done.fetch_add(stop - start);
  }

  // Wait until every iteration ran AND no worker still holds a reference
  // to the (stack-allocated) job.
  const std::size_t total = end - begin;
  sync::MutexLock lock(mutex_);
  job_ = nullptr;  // stop new workers from picking the job up
  cv_done_.wait(lock.native_handle(), [&] {
    return job.done.load() >= total && job.active.load() == 0;
  });
  // Join contract: every iteration ran exactly once. More would mean two
  // workers claimed one chunk (corrupted results with no crash); the
  // stack-allocated job dying while a worker still holds it would be worse.
  ATM_CHECK_MSG(job.done.load() == total && job.active.load() == 0,
                "parallel_for join mismatch: done=" << job.done.load()
                                                    << " total=" << total
                                                    << " active="
                                                    << job.active.load());
}

void ThreadPool::worker_loop() {
  std::size_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      sync::MutexLock lock(mutex_);
      // Spelled as an explicit loop (not the predicate overload): the
      // guarded reads sit in this function's body, where the analysis
      // sees the scoped capability — inside a wait-predicate lambda it
      // could not prove mutex_ is held.
      while (!(stop_ ||
               (job_ != nullptr && job_generation_ != seen_generation))) {
        cv_work_.wait(lock.native_handle());
      }
      if (stop_) return;
      job = job_;
      seen_generation = job_generation_;
      job->active.fetch_add(1);
    }
    for (;;) {
      const std::size_t start = job->next.fetch_add(job->chunk);
      if (start >= job->end) break;
      const std::size_t stop = std::min(job->end, start + job->chunk);
      for (std::size_t i = start; i < stop; ++i) (*job->fn)(i);
      job->done.fetch_add(stop - start);
    }
    {
      const sync::MutexLock lock(mutex_);
      job->active.fetch_sub(1);
    }
    cv_done_.notify_all();
  }
}

}  // namespace atm::mimd

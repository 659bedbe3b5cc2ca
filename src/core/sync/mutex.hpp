// The repo's annotated synchronization primitives: thin wrappers over
// std::mutex / std::unique_lock carrying the Clang Thread Safety
// Analysis attributes from annotated.hpp. Everything outside
// src/core/sync/ must lock through these (lint rule `sync-wrapper`):
// a raw std::mutex is invisible to the analysis, so a field guarded by
// one can be touched lock-free without any tool noticing until a
// schedule exposes the race.
//
// This file is the only place allowed to name the raw standard types,
// and the only place where ATM_NO_THREAD_SAFETY_ANALYSIS may appear —
// the wrappers are the trusted computing base the analysis assumes
// correct, exactly like Abseil's mutex.h.
#pragma once

#include <mutex>

#include "src/core/sync/annotated.hpp"

namespace atm::sync {

/// An exclusive capability over std::mutex. Default-constructible and
/// pinned in place (no copy/move), like std::mutex itself.
class ATM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ATM_ACQUIRE() { m_.lock(); }
  void unlock() ATM_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() ATM_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

  /// The underlying std::mutex, for std::condition_variable waits (see
  /// MutexLock::native_handle()). Waiting releases and reacquires the
  /// mutex invisibly to the analysis; that is sound here for the same
  /// reason it is for Abseil's CondVar — the capability is held at
  /// every guarded access on both sides of the wait.
  [[nodiscard]] std::mutex& native_handle() { return m_; }

 private:
  std::mutex m_;
};

/// RAII scoped lock over Mutex — the annotated replacement for both
/// std::lock_guard and std::unique_lock. Internally a
/// std::unique_lock so condition variables can wait on it via
/// native_handle(); the capability is considered held for the whole
/// scope (waits included, see Mutex::native_handle()).
class ATM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ATM_ACQUIRE(mu) : lock_(mu.native_handle()) {}
  ~MutexLock() ATM_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For `cv.wait(lock.native_handle())` / the predicate overloads.
  [[nodiscard]] std::unique_lock<std::mutex>& native_handle() {
    return lock_;
  }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace atm::sync

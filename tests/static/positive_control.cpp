// Positive control for the negative-compile harness: disciplined use of
// every annotated primitive must compile warning-free under
// -Wthread-safety -Wthread-safety-beta -Werror=thread-safety. If this
// snippet fails, the harness (flags, include path, wrapper annotations)
// is broken — and every "expected failure" below it is meaningless.
#include "src/core/sync/mutex.hpp"

namespace {

class Account {
 public:
  void deposit(int amount) {
    const atm::sync::MutexLock lock(mu_);
    balance_ += amount;
  }

  void deposit_locked(int amount) ATM_REQUIRES(mu_) { balance_ += amount; }

  void deposit_twice(int amount) {
    mu_.lock();
    deposit_locked(amount);
    deposit_locked(amount);
    mu_.unlock();
  }

  bool try_deposit(int amount) {
    if (!mu_.try_lock()) return false;
    balance_ += amount;
    mu_.unlock();
    return true;
  }

  // The generic try-lock-then-lock shape: contend, fall back to a
  // blocking lock and count the contention under it, and join the two
  // paths with the capability held on both.
  void deposit_contended(int amount) {
    if (!mu_.try_lock()) {
      mu_.lock();
      ++contended_;
    }
    balance_ += amount;
    mu_.unlock();
  }

  int balance() const {
    const atm::sync::MutexLock lock(mu_);
    return balance_;
  }

 private:
  mutable atm::sync::Mutex mu_;
  int balance_ ATM_GUARDED_BY(mu_) = 0;
  int contended_ ATM_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Account account;
  account.deposit(1);
  account.deposit_twice(2);
  (void)account.try_deposit(3);
  account.deposit_contended(4);
  return account.balance() == 0 ? 1 : 0;
}

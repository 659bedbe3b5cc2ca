// The ClearSpeed CSX600 as the machine of the paper's "ClearSpeed"
// platform, AssocBackend<ClearSpeedAssocMachine> (assoc_backend.hpp): the
// associative algorithm emulated on a 96-PE-per-chip lock-step SIMD array
// ([12, 13] used this emulation; the paper's figures label it
// "ClearSpeed").
//
// Identical algorithm to the STARAN platform, but every parallel primitive
// pays ceil(n / PEs) virtualization rounds and responder operations become
// reduction trees — the constant-time AP guarantees do not survive
// emulation, which is why this platform's curve sits above the AP's.
#pragma once

#include <numeric>

#include "src/atm/assoc_tasks.hpp"
#include "src/simd/lockstep.hpp"

namespace atm::tasks {

/// Adapter exposing simd::LockstepMachine through the associative-machine
/// concept of src/atm/assoc_tasks.hpp.
class ClearSpeedAssocMachine {
 public:
  using Spec = simd::MachineSpec;
  [[nodiscard]] static Spec default_spec() { return simd::csx600_spec(); }

  ClearSpeedAssocMachine(std::size_t n, Spec spec)
      : machine_(std::move(spec)), n_(n), index_keys_(n) {
    std::iota(index_keys_.begin(), index_keys_.end(), 0.0);
  }

  template <typename F>
  void parallel_all(F&& fn, int word_ops) {
    machine_.poly(n_, static_cast<simd::Cycles>(word_ops),
                  std::forward<F>(fn));
  }
  template <typename F>
  void parallel_masked(const assoc::Mask& mask, F&& fn, int word_ops) {
    // Lock-step machines execute masked steps on every PE (disabled PEs
    // idle), so the cost is the same as an unmasked step.
    machine_.poly(n_, static_cast<simd::Cycles>(word_ops),
                  [&](std::size_t i) {
                    if (mask[i]) fn(i);
                  });
  }
  template <typename P>
  void search(P&& pred, assoc::Mask& mask, int word_ops) {
    mask.resize(n_);
    machine_.poly(n_, static_cast<simd::Cycles>(word_ops),
                  [&](std::size_t i) { mask[i] = pred(i) ? 1 : 0; });
  }
  [[nodiscard]] bool any(const assoc::Mask& mask) {
    return machine_.reduce_count(mask) > 0;
  }
  [[nodiscard]] std::size_t first(const assoc::Mask& mask) {
    return machine_.reduce_min_index(index_keys_, mask);
  }
  [[nodiscard]] std::size_t count(const assoc::Mask& mask) {
    return machine_.reduce_count(mask);
  }
  [[nodiscard]] std::size_t min_index(std::span<const double> keys,
                                      const assoc::Mask& mask) {
    return machine_.reduce_min_index(keys, mask);
  }
  void broadcast() { machine_.broadcast(); }
  void host_access(int word_ops) {
    machine_.charge_scalar(static_cast<simd::Cycles>(word_ops));
  }
  [[nodiscard]] double elapsed_ms() const { return machine_.elapsed_ms(); }
  void reset() { machine_.reset(); }

  static constexpr std::size_t npos = simd::LockstepMachine::npos;

 private:
  simd::LockstepMachine machine_;
  std::size_t n_;
  std::vector<double> index_keys_;
};

}  // namespace atm::tasks

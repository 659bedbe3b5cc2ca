// The STARAN associative processor as the machine of the paper's
// "AP (STARAN)" platform, AssocBackend<ApAssocMachine> (assoc_backend.hpp).
#pragma once

#include "src/ap/ap_machine.hpp"
#include "src/atm/assoc_tasks.hpp"

namespace atm::tasks {

/// Adapter exposing ap::ApMachine through the associative-machine concept
/// used by the shared task templates (src/atm/assoc_tasks.hpp).
class ApAssocMachine {
 public:
  using Spec = ap::ApCostModel;
  [[nodiscard]] static Spec default_spec() { return ap::staran_model(); }

  ApAssocMachine(std::size_t n, Spec model) : machine_(n, std::move(model)) {}

  template <typename F>
  void parallel_all(F&& fn, int word_ops) {
    machine_.parallel_all(std::forward<F>(fn), word_ops);
  }
  template <typename F>
  void parallel_masked(const assoc::Mask& mask, F&& fn, int word_ops) {
    machine_.parallel(mask, std::forward<F>(fn), word_ops);
  }
  template <typename P>
  void search(P&& pred, assoc::Mask& mask, int word_ops) {
    machine_.search(std::forward<P>(pred), mask, word_ops);
  }
  [[nodiscard]] bool any(const assoc::Mask& mask) {
    return machine_.any_responder(mask);
  }
  [[nodiscard]] std::size_t first(const assoc::Mask& mask) {
    return machine_.first_responder(mask);
  }
  [[nodiscard]] std::size_t count(const assoc::Mask& mask) {
    return machine_.count_responders(mask);
  }
  [[nodiscard]] std::size_t min_index(std::span<const double> keys,
                                      const assoc::Mask& mask) {
    return machine_.min_index(keys, mask);
  }
  void broadcast() { machine_.host_access(1); }
  void host_access(int word_ops) { machine_.host_access(word_ops); }
  [[nodiscard]] double elapsed_ms() const { return machine_.elapsed_ms(); }
  void reset() { machine_.reset(); }

  static constexpr std::size_t npos = ap::ApMachine::npos;

 private:
  ap::ApMachine machine_;
};

}  // namespace atm::tasks

// The paper's periodic schedule: an 8-second major cycle of 16 half-second
// periods. Which task runs in which period is the executive's cadence
// (`paper_steps()` in src/atm/pipeline.cpp); this type holds only the
// cycle's dimensions.
#pragma once

#include "src/core/units.hpp"

namespace atm::rt {

/// The dimensions of a cyclic schedule: periods per major cycle and the
/// period length.
class MajorCycleSchedule {
 public:
  /// A schedule of `periods_per_cycle` periods, each `period_ms` long.
  /// Throws std::invalid_argument unless both are positive.
  MajorCycleSchedule(int periods_per_cycle, double period_ms);

  [[nodiscard]] int periods_per_cycle() const { return periods_per_cycle_; }
  [[nodiscard]] double period_ms() const { return period_ms_; }
  [[nodiscard]] double major_cycle_ms() const {
    return period_ms_ * periods_per_cycle_;
  }

  /// The paper's schedule: 16 x 500 ms periods.
  [[nodiscard]] static MajorCycleSchedule paper_schedule();

 private:
  int periods_per_cycle_;
  double period_ms_;
};

}  // namespace atm::rt

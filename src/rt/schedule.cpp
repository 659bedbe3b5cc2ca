#include "src/rt/schedule.hpp"

#include <stdexcept>

namespace atm::rt {

MajorCycleSchedule::MajorCycleSchedule(int periods_per_cycle,
                                       double period_ms)
    : periods_per_cycle_(periods_per_cycle), period_ms_(period_ms) {
  if (periods_per_cycle <= 0 || period_ms <= 0.0) {
    throw std::invalid_argument("MajorCycleSchedule: invalid dimensions");
  }
}

MajorCycleSchedule MajorCycleSchedule::paper_schedule() {
  return MajorCycleSchedule(core::kPeriodsPerMajorCycle,
                            core::kPeriodSeconds * 1000.0);
}

}  // namespace atm::rt

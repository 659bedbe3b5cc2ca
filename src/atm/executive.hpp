// The executive's period loop (paper Section 4.2), shared by
// tasks::run_pipeline and extended::run_full_system. Internal to src/atm:
// a run is a fixed schedule of period steps that each executive builds
// and hands to run_schedule.
//
// Each period the loop stamps the trace context, degrades the task
// parameters to the governor's level and lets the fault injector steal
// host time. Then it walks the schedule in order:
//   * untimed steps (radar, re-entry and recorder, query arrival) are
//     simulation scaffolding and never spend period budget;
//   * timed steps are ATM tasks: one whose period has already ended is
//     skipped, otherwise it runs and its duration is recorded against
//     the period deadline.
// Last, the loop feeds the governor (trouble = any task of the period
// not met) and waits out the rest of the period.
#pragma once

#include <functional>
#include <span>

#include "src/atm/pipeline.hpp"

namespace atm::tasks::detail {

/// What a step sees of the period it runs in.
struct Period {
  Task1Params task1;    ///< The baseline, degraded to log.governor_level.
  Task23Params task23;
  airfield::RadarFrame frame;  ///< This period's returns (radar step).
  PeriodLog& log;
  core::Rng& radar_rng;
  rt::FaultInjector& faults;
};

struct Step {
  /// Deadline-monitor row of a timed task; nullptr for an untimed step.
  const char* task = nullptr;
  /// Cadence: the step runs in the periods p of a major cycle with
  /// p % every == at.
  int every = 1;
  int at = 0;
  /// Load shedding: when set and false at the period's governor level,
  /// the step neither runs nor counts as scheduled.
  bool (*runs_at_level)(int level) = nullptr;
  /// A timed step returns its modeled duration in ms; untimed ones 0.
  std::function<double(Period&)> run;
};

/// The paper pipeline's steps, which the full system reuses: radar
/// before the period, Task 1, grid re-entry plus the recorder, and Tasks
/// 2+3 in the last period. Task steps store their stats in `result`.
struct PaperSteps {
  Step radar;
  Step task1;
  Step reentry;
  Step task23;
};
[[nodiscard]] PaperSteps paper_steps(Backend& backend,
                                     const PipelineConfig& cfg,
                                     PipelineResult& result);

/// Run cfg.major_cycles major cycles of `schedule` on the already loaded
/// `backend`, filling `result`.
void run_schedule(Backend& backend, const PipelineConfig& cfg,
                  std::span<const Step> schedule, PipelineResult& result);

}  // namespace atm::tasks::detail

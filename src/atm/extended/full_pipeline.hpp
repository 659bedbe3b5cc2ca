// The complete ATM system under the real-time executive — the paper's
// Section 7.2 future work ("implement all basic ATM tasks and create a
// more complete ATM system that can be tested ... to determine if it is
// still viable and will not miss deadlines").
//
// Extended schedule per 16-period major cycle:
//
//   every period     : Task 1 (tracking & correlation)  then
//                      display update, then sporadic controller queries
//   period 15        : Tasks 2+3 (collision detection & resolution), then
//                      terrain avoidance
//   periods 7 and 15 : automatic voice advisory (every 4 s)
//
// Optionally the radar environment is the unsimplified multi-tower one,
// in which case the multi-return correlation replaces Task 1.
//
// The full system runs on run_pipeline's period loop, so every
// PipelineConfig field (clock mode, trace, governor, faults, recorder,
// preloaded) means the same here, and the result carries the same
// PeriodLogs and governor counters as a PipelineResult.
#pragma once

#include <vector>

#include "src/airfield/terrain.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/pipeline.hpp"

namespace atm::tasks::extended {

/// The paper pipeline's configuration plus the extended tasks. The
/// governor's top rung additionally sheds the sporadic query task. Sensor
/// faults corrupt the single-radar frame only; stolen time applies in
/// both radar modes.
struct FullSystemConfig : PipelineConfig {
  std::uint64_t terrain_seed = 99;
  airfield::TerrainParams terrain_map;
  TerrainTaskParams terrain;
  DisplayParams display;
  AdvisoryParams advisory;
  /// Sporadic controller queries per period (0 disables the task).
  SporadicParams sporadic;
  /// AVA cadence in periods (8 = every 4 seconds).
  int advisory_every_periods = 8;
  /// Use the multi-tower radar environment instead of the paper's
  /// one-return simplification.
  bool multi_radar = false;
  airfield::TowerLayoutParams towers;
};

/// The pipeline result plus the extended tasks' outcomes: `monitor` holds
/// one row per task of the schedule, and in multi-radar mode the Task 1
/// columns of `periods` log the multi-return correlation.
struct FullSystemResult : PipelineResult {
  MultiRadarStats last_multi;
  TerrainStats last_terrain;
  DisplayStats last_display;
  AdvisoryStats last_advisory;
  SporadicStats last_sporadic;
  std::vector<Advisory> last_queue;
  double mean_coverage = 0.0;  ///< Returns per aircraft (multi-radar mode).
  std::uint64_t sporadic_shed = 0;  ///< Query batches the governor shed.
};

/// Load a fresh airfield (unless cfg.preloaded) and the terrain into
/// `backend` and run the full system.
FullSystemResult run_full_system(Backend& backend,
                                 const FullSystemConfig& cfg);

}  // namespace atm::tasks::extended

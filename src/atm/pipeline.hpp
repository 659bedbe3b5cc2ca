// The timed major-cycle simulation (paper Section 4.2): 16 half-second
// periods per 8-second major cycle, radar generation before each period,
// Task 1 every period, Tasks 2+3 at the end of the 16th period, deadline
// accounting throughout, and waiting out the remainder of each period so
// nothing starts ahead of schedule.
//
// One entry point drives every mode: `run_pipeline(backend, cfg)` reads
// the clock mode (virtual modeled time vs. the paper's real wall-clock
// executive), whether the backend is pre-loaded, and the optional trace
// sink from the PipelineConfig. The full system
// (extended::run_full_system) runs on the same period loop with more
// tasks in its schedule, so these fields mean the same there.
#pragma once

#include <vector>

#include "src/airfield/history.hpp"
#include "src/airfield/setup.hpp"
#include "src/atm/backend.hpp"
#include "src/obs/trace.hpp"
#include "src/rt/clock.hpp"
#include "src/rt/deadline.hpp"
#include "src/rt/faults.hpp"
#include "src/rt/governor.hpp"
#include "src/rt/schedule.hpp"

namespace atm::tasks {

/// How the executive keeps time.
enum class ClockMode {
  /// Advance a virtual clock by each task's *modeled* platform time —
  /// deterministic, instant, the mode behind the paper's platform
  /// comparisons.
  kVirtual,
  /// The paper's actual executive loop: run each period's tasks, then
  /// wait out the remainder of the period on the host's real clock so
  /// nothing starts ahead of schedule (Section 4.2), counting misses
  /// against real deadlines. Durations are the backend's *measured host
  /// execution* times, so this mode demonstrates and tests the executive
  /// mechanics on real time.
  kWallclock,
};

struct PipelineConfig {
  std::size_t aircraft = 1000;
  int major_cycles = 1;
  std::uint64_t seed = 42;            ///< Airfield + radar noise seed.
  airfield::SetupParams setup;        ///< Airfield generation parameters.
  airfield::RadarParams radar;
  Task1Params task1;
  Task23Params task23;
  /// Apply the paper's grid re-entry rule between periods.
  bool apply_reentry = true;
  /// When non-null, the pipeline snapshots the tracked positions into
  /// this recorder after every Task 1 (the paper's "all radar is saved"
  /// retrace capability; untimed bookkeeping).
  airfield::FlightRecorder* recorder = nullptr;

  ClockMode clock_mode = ClockMode::kVirtual;
  /// Real period length in kWallclock mode. 500.0 is the paper's rate;
  /// small values keep demos/tests fast. Ignored in kVirtual mode (the
  /// virtual period is always the paper's 500 ms).
  double real_period_ms = 500.0;
  /// Skip the initial load: run on the backend's current flight state
  /// (so callers can share one airfield across platforms or chain runs).
  bool preloaded = false;
  /// When non-null, the run emits cycle/period spans, per-task events,
  /// and deadline outcomes into this sink (borrowed, never owned): it is
  /// attached to the backend for the run and detached after. When null,
  /// the executive leaves the backend's own sink as it finds it.
  /// Tracing never alters results: a run with a sink produces the exact
  /// PipelineResult of a run without one.
  obs::TraceSink* trace = nullptr;

  /// Deadline-aware overload governor (disabled by default). When
  /// enabled, the executive walks the tasks::degradation_ladder() on
  /// sustained overload and recovers with hysteresis; every transition
  /// is one kGovernor trace event. A disabled governor leaves every run
  /// bit-identical to the pre-governor executive.
  rt::GovernorConfig governor;
  /// Seeded fault injection (disabled by default): radar dropout bursts,
  /// ghost returns, noise bursts, and stolen host time. Deterministic
  /// given (seed, config); see src/rt/faults.hpp.
  rt::FaultConfig faults;
};

/// What happened in one half-second period.
struct PeriodLog {
  int cycle = 0;
  int period = 0;
  double radar_ms = 0.0;       ///< Modeled radar-generation time (untimed).
  double task1_ms = 0.0;
  rt::Outcome task1_outcome = rt::Outcome::kMet;
  bool task23_ran = false;
  double task23_ms = 0.0;
  rt::Outcome task23_outcome = rt::Outcome::kMet;
  std::size_t wrapped = 0;     ///< Aircraft re-entered at (-x, -y).
  int governor_level = 0;      ///< Ladder level the period ran at.
  double stolen_ms = 0.0;      ///< Host time the fault injector stole.
};

/// Result of one executive run. The deadline monitor is the single source
/// of truth for met / missed / skipped (the per-period outcome fields in
/// `periods` are derived from the very record() calls that fill it, and
/// the executive checks the two agree), so callers read aggregates from
/// it instead of re-counting by hand.
struct PipelineResult {
  /// The per-task deadline ledger the executive filled; deadlines()
  /// reads it.
  rt::DeadlineMonitor monitor;
  std::vector<PeriodLog> periods;
  core::StreamingStats task1_ms;   ///< Over started Task 1 instances.
  core::StreamingStats task23_ms;  ///< Over started Task 2+3 instances.
  Task1Stats last_task1;
  Task23Stats last_task23;
  double virtual_end_ms = 0.0;     ///< Executive clock at run end.
  int final_governor_level = 0;    ///< Ladder level at run end.
  std::uint64_t governor_degrades = 0;  ///< Degrade transitions taken.
  std::uint64_t governor_recovers = 0;  ///< Recover transitions taken.

  /// The per-task deadline ledger of the run.
  [[nodiscard]] const rt::DeadlineMonitor& deadlines() const {
    return monitor;
  }

  /// The paper's headline count: misses plus skips across all tasks.
  [[nodiscard]] std::uint64_t missed_or_skipped() const {
    return monitor.total_missed() + monitor.total_skipped();
  }

  /// True when every scheduled task instance met its period deadline.
  [[nodiscard]] bool all_deadlines_met() const {
    return missed_or_skipped() == 0;
  }
};

/// Run cfg.major_cycles full major cycles on `backend` in the configured
/// clock mode. Unless cfg.preloaded is set, the backend is first loaded
/// with a fresh airfield of cfg.aircraft flights (seeded by cfg.seed).
PipelineResult run_pipeline(Backend& backend, const PipelineConfig& cfg);

}  // namespace atm::tasks

// Tests for the wall-clock executive mode (the paper's real busy-wait
// loop, scaled down to keep the suite fast).
#include <gtest/gtest.h>

#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/rt/clock.hpp"

namespace atm::tasks {
namespace {

TEST(WallClock, SmallWorkloadHoldsRealDeadlines) {
  // 100 aircraft with a 40 ms period: the host reference runs Task 1 in
  // well under a millisecond, so every real deadline is met and the run
  // takes (16 periods x 40 ms) of real time.
  PipelineConfig cfg;
  cfg.aircraft = 100;
  cfg.major_cycles = 1;
  cfg.clock_mode = ClockMode::kWallclock;
  cfg.real_period_ms = 40.0;
  ReferenceBackend ref;
  const rt::Stopwatch sw;
  const PipelineResult result = run_pipeline(ref, cfg);
  const double elapsed = sw.elapsed_ms();

  EXPECT_EQ(result.deadlines().total_missed(), 0u);
  EXPECT_EQ(result.deadlines().total_skipped(), 0u);
  // The executive waited out each period: the run cannot finish early.
  EXPECT_GE(elapsed, 16 * 40.0 - 5.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(result.periods.size()), 16.0);
}

TEST(WallClock, ImpossiblePeriodMissesAndSkips) {
  // A 2000-aircraft Tasks 2+3 cannot finish in a 1 ms real period on this
  // host: deadlines are missed and later periods skipped.
  PipelineConfig cfg;
  cfg.aircraft = 2000;
  cfg.major_cycles = 1;
  cfg.clock_mode = ClockMode::kWallclock;
  cfg.real_period_ms = 1.0;
  ReferenceBackend ref;
  const PipelineResult result = run_pipeline(ref, cfg);
  EXPECT_GT(result.deadlines().total_missed() + result.deadlines().total_skipped(),
            0u);
}

TEST(WallClock, DurationsAreRealNotModeled) {
  // In wall-clock mode the recorded durations are host measurements:
  // strictly positive and (for this tiny workload) well under the period.
  PipelineConfig cfg;
  cfg.aircraft = 64;
  cfg.major_cycles = 1;
  cfg.clock_mode = ClockMode::kWallclock;
  cfg.real_period_ms = 25.0;
  ReferenceBackend ref;
  const PipelineResult result = run_pipeline(ref, cfg);
  EXPECT_GT(result.task1_ms.mean(), 0.0);
  EXPECT_LT(result.task1_ms.max(), 25.0);
}

TEST(WallClock, GovernorConvertsSkipsIntoDegradedMetPeriods) {
  // Smoke only: 1000-aircraft Tasks 2+3 cannot fit a 1 ms real period, so
  // the governed executive must degrade at least once. How many periods
  // the degradation converts into met ones depends on host load; that
  // comparison runs on the virtual clock
  // (GovernedSchedules.StolenTimeMissesBecomeDegradedMetPeriods).
  PipelineConfig cfg;
  cfg.aircraft = 1000;
  cfg.major_cycles = 1;
  cfg.clock_mode = ClockMode::kWallclock;
  cfg.real_period_ms = 1.0;
  cfg.governor.enabled = true;
  ReferenceBackend ref;
  const PipelineResult governed = run_pipeline(ref, cfg);
  EXPECT_GT(governed.missed_or_skipped(), 0u);
  EXPECT_GT(governed.governor_degrades, 0u);
}

TEST(WallClock, RecorderWorksInWallClockModeToo) {
  PipelineConfig cfg;
  cfg.aircraft = 32;
  cfg.major_cycles = 1;
  airfield::FlightRecorder recorder(32, 20);
  cfg.recorder = &recorder;
  cfg.clock_mode = ClockMode::kWallclock;
  cfg.real_period_ms = 10.0;
  ReferenceBackend ref;
  run_pipeline(ref, cfg);
  EXPECT_EQ(recorder.recorded(), 16);
}

}  // namespace
}  // namespace atm::tasks

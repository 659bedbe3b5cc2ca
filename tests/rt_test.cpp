// Tests for the real-time executive pieces (src/rt).
#include <gtest/gtest.h>

#include "src/rt/clock.hpp"
#include "src/rt/deadline.hpp"
#include "src/rt/schedule.hpp"

namespace atm::rt {
namespace {

TEST(VirtualClock, AdvancesAndWaits) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
  clock.advance_ms(120.0);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 120.0);
  const double waited = clock.advance_to_ms(500.0);
  EXPECT_DOUBLE_EQ(waited, 380.0);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 500.0);
}

TEST(VirtualClock, AdvanceToPastIsNoop) {
  VirtualClock clock;
  clock.advance_ms(700.0);
  const double waited = clock.advance_to_ms(500.0);
  EXPECT_DOUBLE_EQ(waited, 0.0);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 700.0);  // overruns are not given back
}

TEST(VirtualClock, Reset) {
  VirtualClock clock;
  clock.advance_ms(10.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
}

TEST(Stopwatch, MeasuresNonNegativeWallTime) {
  const Stopwatch sw;
  EXPECT_GE(sw.elapsed_ms(), 0.0);
}

TEST(DeadlineMonitor, ClassifiesMetAndMissed) {
  DeadlineMonitor monitor;
  EXPECT_EQ(monitor.record("t", 0.0, 400.0, 500.0), Outcome::kMet);
  EXPECT_EQ(monitor.record("t", 0.0, 600.0, 500.0), Outcome::kMissed);
  EXPECT_EQ(monitor.record("t", 450.0, 50.0, 500.0), Outcome::kMet);
  EXPECT_EQ(monitor.record("t", 450.0, 50.1, 500.0), Outcome::kMissed);
  const TaskRecord& rec = monitor.task("t");
  EXPECT_EQ(rec.met, 2u);
  EXPECT_EQ(rec.missed, 2u);
  EXPECT_EQ(rec.scheduled(), 4u);
}

TEST(DeadlineMonitor, RecordsSkips) {
  DeadlineMonitor monitor;
  monitor.record_skip("t23");
  monitor.record_skip("t23");
  EXPECT_EQ(monitor.task("t23").skipped, 2u);
  EXPECT_EQ(monitor.total_skipped(), 2u);
}

TEST(DeadlineMonitor, TotalsAcrossTasks) {
  DeadlineMonitor monitor;
  monitor.record("a", 0.0, 1.0, 10.0);
  monitor.record("b", 0.0, 20.0, 10.0);
  monitor.record_skip("c");
  EXPECT_EQ(monitor.total_met(), 1u);
  EXPECT_EQ(monitor.total_missed(), 1u);
  EXPECT_EQ(monitor.total_skipped(), 1u);
}

TEST(DeadlineMonitor, UnknownTaskThrows) {
  DeadlineMonitor monitor;
  EXPECT_FALSE(monitor.has_task("nope"));
  EXPECT_THROW((void)monitor.task("nope"), std::out_of_range);
}

TEST(DeadlineMonitor, TracksDurationStats) {
  DeadlineMonitor monitor;
  monitor.record("t", 0.0, 10.0, 500.0);
  monitor.record("t", 0.0, 30.0, 500.0);
  EXPECT_DOUBLE_EQ(monitor.task("t").duration_ms.mean(), 20.0);
  EXPECT_DOUBLE_EQ(monitor.task("t").duration_ms.max(), 30.0);
}

TEST(DeadlineMonitor, SummaryMentionsEveryTask) {
  DeadlineMonitor monitor;
  monitor.record("alpha", 0.0, 1.0, 2.0);
  monitor.record_skip("beta");
  const std::string s = monitor.summary();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
}

TEST(MajorCycleSchedule, PaperScheduleShape) {
  const auto schedule = MajorCycleSchedule::paper_schedule();
  EXPECT_EQ(schedule.periods_per_cycle(), 16);
  EXPECT_DOUBLE_EQ(schedule.period_ms(), 500.0);
  EXPECT_DOUBLE_EQ(schedule.major_cycle_ms(), 8000.0);
}

TEST(MajorCycleSchedule, BoundsChecking) {
  EXPECT_THROW(MajorCycleSchedule(0, 100.0), std::invalid_argument);
  EXPECT_THROW(MajorCycleSchedule(4, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace atm::rt

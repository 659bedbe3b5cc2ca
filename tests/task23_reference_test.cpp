// Tests for the reference Tasks 2+3 implementation (collision detection &
// resolution, paper Sections 5.2-5.3 / Algorithm 2).
#include "src/atm/reference/collision.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/airfield/setup.hpp"
#include "src/atm/batcher.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::reference {
namespace {

using airfield::FlightDb;
using airfield::kNone;

/// Two aircraft flying head-on along x at the same altitude, meeting well
/// inside the critical window. The default 25 nm / 0.05 nm-per-period pair
/// meets at t ~ 220 periods (critical) and is resolvable within the +-30
/// degree turn budget: lateral displacement 0.05 * sin(20 deg) * 220 ~ 3.8
/// nm clears the 3 nm band. (A 10 nm pair would be geometrically
/// *unresolvable* — 30 degrees only buys 2.5 nm by the merge point.)
FlightDb head_on_pair(double separation_nm = 25.0,
                      double speed_nm_per_period = 0.05) {
  FlightDb db(2);
  db.x[0] = 0.0;
  db.dx[0] = speed_nm_per_period;
  db.x[1] = separation_nm;
  db.dx[1] = -speed_nm_per_period;
  db.alt[0] = db.alt[1] = 10000.0;
  return db;
}

TEST(TrialAngles, PaperAlternationSequence) {
  // +5, -5, +10, -10, ..., +30, -30 (Section 5.3).
  EXPECT_DOUBLE_EQ(trial_angle_deg(0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(trial_angle_deg(1, 5.0), -5.0);
  EXPECT_DOUBLE_EQ(trial_angle_deg(2, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(trial_angle_deg(3, 5.0), -10.0);
  EXPECT_DOUBLE_EQ(trial_angle_deg(10, 5.0), 30.0);
  EXPECT_DOUBLE_EQ(trial_angle_deg(11, 5.0), -30.0);
  Task23Params params;
  EXPECT_EQ(max_trial_attempts(params), 12);
}

TEST(Task23Reference, HeadOnPairIsCriticalAndResolved) {
  FlightDb db = head_on_pair();
  const Task23Stats stats = detect_and_resolve(db);
  EXPECT_EQ(stats.aircraft, 2u);
  EXPECT_EQ(stats.conflicts, 2u);  // both see the conflict
  EXPECT_EQ(stats.critical, 2u);
  EXPECT_EQ(stats.resolved, 2u);
  EXPECT_EQ(stats.unresolved, 0u);
  // Resolved aircraft turned: their velocity changed but kept magnitude.
  EXPECT_NE(db.dy[0], 0.0);
  EXPECT_NEAR(std::hypot(db.dx[0], db.dy[0]), 0.05, 1e-12);
  // Collision flags cleared on commit (Algorithm 2 line 12).
  EXPECT_EQ(db.col[0], 0);
  EXPECT_EQ(db.col_with[0], kNone);
}

TEST(Task23Reference, ResolvedPathsAreActuallyConflictFree) {
  FlightDb db = head_on_pair();
  detect_and_resolve(db);
  // Re-running detection on the committed paths: the pair may still be
  // in *conflict* within 20 minutes (both turned 5 degrees the same way,
  // paths still cross) but must no longer be *critical*.
  ScanWork work;
  const DetectOutcome out0 =
      scan_against_all(db, 0, db.dx[0], db.dy[0], Task23Params{}, work);
  EXPECT_FALSE(out0.critical);
}

TEST(Task23Reference, DistantConflictIsNotCritical) {
  // Meeting at t ~ 1700 periods: inside the horizon, past critical (300).
  FlightDb db = head_on_pair(20.0, 0.005);
  const Task23Stats stats = detect_and_resolve(db);
  EXPECT_EQ(stats.conflicts, 2u);
  EXPECT_EQ(stats.critical, 0u);
  EXPECT_EQ(stats.resolved, 0u);
  // Paths unchanged; detection flags kept for the cycle report.
  EXPECT_DOUBLE_EQ(db.dy[0], 0.0);
  EXPECT_EQ(db.col[0], 1);
  EXPECT_EQ(db.col_with[0], 1);
  // time_till starts at the 300-period "safe" value and is only pulled
  // *down* by sooner conflicts (Section 5.2).
  EXPECT_DOUBLE_EQ(db.time_till[0], 300.0);
}

TEST(Task23Reference, AltitudeGateSuppressesConflict) {
  FlightDb db = head_on_pair();
  db.alt[1] = db.alt[0] + 2000.0;  // different flight levels
  const Task23Stats stats = detect_and_resolve(db);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.pair_tests, 0u);  // the gate filters before the test
}

TEST(Task23Reference, NoConflictLeavesStateClean) {
  FlightDb db(2);
  db.x[0] = -100.0;
  db.x[1] = 100.0;
  db.dx[0] = -0.01;
  db.dx[1] = 0.01;  // flying apart
  db.alt[0] = db.alt[1] = 5000.0;
  const Task23Stats stats = detect_and_resolve(db);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(db.col[0], 0);
  EXPECT_DOUBLE_EQ(db.time_till[0], 300.0);
  EXPECT_EQ(db.col_with[0], kNone);
}

TEST(Task23Reference, PartnerIsSoonestConflict) {
  // Aircraft 0 faces two head-on threats; the nearer one (id 2) is sooner.
  FlightDb db(3);
  const double xs[] = {0.0, 20.0, 8.0};
  const double dxs[] = {0.05, -0.05, -0.05};
  for (std::size_t i = 0; i < 3; ++i) {
    db.alt[i] = 9000.0;
    db.x[i] = xs[i];
    db.dx[i] = dxs[i];
  }

  ScanWork work;
  const DetectOutcome det =
      scan_against_all(db, 0, db.dx[0], db.dy[0], Task23Params{}, work);
  EXPECT_TRUE(det.conflict);
  EXPECT_EQ(det.partner, 2);
  EXPECT_EQ(work.pair_tests, 2u);
  EXPECT_EQ(work.pair_candidates, 2u);
}

TEST(Task23Reference, SnapshotSemanticsIgnoreNeighboursResolution) {
  // Three-in-a-row head-on: the middle pair is critical. Aircraft are
  // resolved against *original* paths, not against what a neighbour
  // committed earlier in the loop — so results must be independent of
  // record order. We check by reversing the records.
  FlightDb fwd(2);
  fwd.alt[0] = fwd.alt[1] = 8000.0;
  fwd.x[0] = 0.0;
  fwd.dx[0] = 0.04;
  fwd.x[1] = 6.0;
  fwd.dx[1] = -0.04;

  FlightDb rev(2);
  rev.alt[0] = rev.alt[1] = 8000.0;
  rev.x[0] = 6.0;
  rev.dx[0] = -0.04;
  rev.x[1] = 0.0;
  rev.dx[1] = 0.04;

  const Task23Stats sf = detect_and_resolve(fwd);
  const Task23Stats sr = detect_and_resolve(rev);
  EXPECT_EQ(sf.resolved, sr.resolved);
  EXPECT_EQ(sf.critical, sr.critical);
  // Mirrored records end with mirrored velocities.
  EXPECT_DOUBLE_EQ(fwd.dx[0], rev.dx[1]);
  EXPECT_DOUBLE_EQ(fwd.dy[0], rev.dy[1]);
}

TEST(Task23Reference, UnresolvableBoxedInAircraftKeepsPath) {
  // Ring of aircraft converging on the centre from every 15 degrees: the
  // centre aircraft cannot turn its way (max 30 degrees) out of all of
  // them. It must keep its path and count as unresolved.
  constexpr int kRing = 24;
  FlightDb db(kRing + 1);
  for (int k = 0; k < kRing; ++k) {
    const double theta = 2.0 * std::numbers::pi * k / kRing;
    db.x[static_cast<std::size_t>(k)] = 8.0 * std::cos(theta);
    db.y[static_cast<std::size_t>(k)] = 8.0 * std::sin(theta);
    db.dx[static_cast<std::size_t>(k)] = -0.04 * std::cos(theta);
    db.dy[static_cast<std::size_t>(k)] = -0.04 * std::sin(theta);
    db.alt[static_cast<std::size_t>(k)] = 10000.0;
  }
  db.x[kRing] = 0.0;
  db.y[kRing] = 0.0;
  db.dx[kRing] = 0.03;
  db.dy[kRing] = 0.0;
  db.alt[kRing] = 10000.0;

  const double before_dx = db.dx[kRing];
  const Task23Stats stats = detect_and_resolve(db);
  EXPECT_GT(stats.unresolved, 0u);
  EXPECT_DOUBLE_EQ(db.dx[kRing], before_dx);  // unresolved keeps its path
  EXPECT_EQ(db.col[kRing], 1);                // and keeps its flags
}

TEST(Task23Reference, ResolutionPreservesSpeed) {
  const FlightDb initial = airfield::make_airfield(400, 77);
  FlightDb db = initial;
  detect_and_resolve(db);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_NEAR(std::hypot(db.dx[i], db.dy[i]),
                std::hypot(initial.dx[i], initial.dy[i]), 1e-9)
        << "aircraft " << i;
  }
}

TEST(Task23Reference, PositionsNeverChange) {
  // Tasks 2+3 alter paths, not positions (Task 1 moves aircraft).
  const FlightDb initial = airfield::make_airfield(300, 5);
  FlightDb db = initial;
  detect_and_resolve(db);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_DOUBLE_EQ(db.x[i], initial.x[i]);
    EXPECT_DOUBLE_EQ(db.y[i], initial.y[i]);
  }
}

TEST(Task23Reference, EmptyAndSingleAircraft) {
  FlightDb empty;
  EXPECT_EQ(detect_and_resolve(empty).conflicts, 0u);
  FlightDb one(1);
  one.dx[0] = 0.05;
  const Task23Stats stats = detect_and_resolve(one);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.pair_tests, 0u);
}

class Task23InvariantSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Task23InvariantSweep, AccountingInvariants) {
  const std::size_t n = GetParam();
  FlightDb db = airfield::make_airfield(n, 31 + n);
  const Task23Stats stats = detect_and_resolve(db);
  EXPECT_EQ(stats.aircraft, n);
  EXPECT_EQ(stats.resolved + stats.unresolved, stats.critical);
  EXPECT_LE(stats.critical, stats.conflicts);
  EXPECT_LE(stats.conflicts, n);
  // Each rescan runs at most a full pair sweep; pair tests are bounded by
  // (detection + rescans) * (n - 1).
  EXPECT_LE(stats.pair_tests, (n + stats.rescans) * (n - 1));
  // Resolved aircraft have clean flags; critical-unresolved keep col = 1.
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (db.col[i]) ++flagged;
  }
  EXPECT_EQ(flagged, stats.conflicts - stats.resolved);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Task23InvariantSweep,
                         ::testing::Values(50, 200, 600, 1500));

}  // namespace
}  // namespace atm::tasks::reference

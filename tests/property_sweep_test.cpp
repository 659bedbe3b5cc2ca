// Property sweeps: system-level invariants that must hold for any seed and
// fleet size, run across a parameter grid.
#include <gtest/gtest.h>

#include <cmath>

#include "src/airfield/setup.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/atm/reference_backend.hpp"

namespace atm::tasks {
namespace {

struct SweepCase {
  std::uint64_t seed;
  std::size_t aircraft;
};

class PipelinePropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelinePropertyTest, CoreInvariantsOverAFullCycle) {
  const auto [seed, aircraft] = GetParam();
  PipelineConfig cfg;
  cfg.aircraft = aircraft;
  cfg.major_cycles = 1;
  cfg.seed = seed;
  ReferenceBackend ref;
  const PipelineResult result = run_pipeline(ref, cfg);
  const airfield::FlightDb& db = ref.state();

  // Population conserved; everything stays on (or wraps back into) the
  // field; altitudes untouched by the core tasks.
  ASSERT_EQ(db.size(), aircraft);
  const airfield::FlightDb initial = airfield::make_airfield(aircraft, seed);
  for (std::size_t i = 0; i < aircraft; ++i) {
    // Re-entry preserves the exit magnitude, and radar noise can nudge an
    // edge-oscillating aircraft a bit further out before the velocity
    // carries it back in: allow ~2 periods of drift + noise past the edge.
    ASSERT_LE(std::fabs(db.x[i]), core::kGridHalfExtentNm + 1.0)
        << "seed " << seed << " aircraft " << i;
    ASSERT_DOUBLE_EQ(db.alt[i], initial.alt[i]);
    // Turning preserves speed: |v| unchanged from setup.
    ASSERT_NEAR(std::hypot(db.dx[i], db.dy[i]),
                std::hypot(initial.dx[i], initial.dy[i]), 1e-9);
  }

  // Task accounting: 16 Task 1 instances, 1 Tasks 2+3 instance.
  EXPECT_EQ(result.deadlines().task("task1").scheduled(), 16u);
  EXPECT_EQ(result.deadlines().task("task23").scheduled(), 1u);

  // Correlation sanity at the paper's noise level.
  EXPECT_GT(result.last_task1.matched, aircraft * 6 / 10);
  EXPECT_EQ(result.last_task1.matched, result.last_task1.updated_aircraft);

  // Collision accounting.
  EXPECT_EQ(result.last_task23.resolved + result.last_task23.unresolved,
            result.last_task23.critical);
  EXPECT_LE(result.last_task23.critical, result.last_task23.conflicts);
}

TEST_P(PipelinePropertyTest, ResolutionCommitsAreConflictFreeAtCommitTime) {
  // Every aircraft the resolver committed must, against the *pre-commit*
  // paths it was checked against, have no critical conflict. We re-verify
  // by reconstructing the pre-commit snapshot.
  const auto [seed, aircraft] = GetParam();
  airfield::FlightDb db = airfield::make_airfield(aircraft, seed);
  const airfield::FlightDb before = db;
  reference::detect_and_resolve(db);

  reference::ScanWork work;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const bool committed =
        db.dx[i] != before.dx[i] || db.dy[i] != before.dy[i];
    if (!committed) continue;
    // Check the committed velocity against everyone's *original* path.
    const auto out = reference::scan_against_all(
        before, i, db.dx[i], db.dy[i], Task23Params{}, work);
    ASSERT_FALSE(out.critical)
        << "aircraft " << i << " committed a still-critical path (seed "
        << seed << ")";
  }
}

TEST_P(PipelinePropertyTest, FullSystemKeepsAllInvariants) {
  const auto [seed, aircraft] = GetParam();
  extended::FullSystemConfig cfg;
  cfg.aircraft = aircraft;
  cfg.major_cycles = 1;
  cfg.seed = seed;
  ReferenceBackend ref;
  const auto result = extended::run_full_system(ref, cfg);
  const airfield::FlightDb& db = ref.state();

  // Terrain climbs only ever raise altitude.
  const airfield::FlightDb initial = airfield::make_airfield(aircraft, seed);
  for (std::size_t i = 0; i < aircraft; ++i) {
    ASSERT_GE(db.alt[i], initial.alt[i] - 1e-9);
  }
  // Display state is fully populated after a cycle of updates.
  for (std::size_t i = 0; i < aircraft; ++i) {
    ASSERT_GE(db.sector[i], 0);
  }
  // Advisory accounting matches queue length.
  EXPECT_EQ(result.last_advisory.total(), result.last_queue.size());
  // Sporadic answers exist when the task ran.
  EXPECT_GT(result.last_sporadic.queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, PipelinePropertyTest,
    ::testing::Values(SweepCase{1, 200}, SweepCase{2, 200},
                      SweepCase{3, 500}, SweepCase{4, 500},
                      SweepCase{5, 900}, SweepCase{6, 1400}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.aircraft);
    });

}  // namespace
}  // namespace atm::tasks

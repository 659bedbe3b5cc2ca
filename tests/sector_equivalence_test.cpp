// Sharded vs unsharded equivalence: splitting Task 1 into per-sector
// thread-pool tasks, and charging Tasks 2+3 by sector, must not change a
// single task outcome. For every named scenario, every sector count, and
// both broadphase modes (sharding composes with the indexes), the sharded
// runs must produce identical outcome() counters and bit-identical
// post-run flight state on both host execution paths (sequential
// reference and the MIMD thread pool). Only the *Work fields may differ —
// that the halos make this exact is the whole design bar
// (docs/SHARDING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/airfield/setup.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"

namespace atm::tasks {
namespace {

using core::spatial::BroadphaseMode;
using core::spatial::ShardMode;

PipelineConfig make_config(const Scenario& scenario, BroadphaseMode phase,
                           ShardMode shard, int sectors_per_axis) {
  Scenario s = scenario;
  s.policy.broadphase = phase;
  s.policy.shard = shard;
  s.policy.sectors_per_axis = sectors_per_axis;
  return make_pipeline_config(s);
}

constexpr int kSectorCounts[] = {1, 2, 4};

class SectorEquivalenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SectorEquivalenceTest, ReferencePathMatchesUnsharded) {
  for (const BroadphaseMode phase :
       {BroadphaseMode::kBruteForce, BroadphaseMode::kGrid}) {
    ReferenceBackend baseline;
    const PipelineResult rb = run_pipeline(
        baseline, make_config(GetParam(), phase, ShardMode::kNone, 4));
    EXPECT_EQ(rb.last_task1.sectors, 0);
    EXPECT_EQ(rb.last_task23.sectors, 0);

    for (const int axis : kSectorCounts) {
      ReferenceBackend sharded;
      const PipelineResult rs = run_pipeline(
          sharded, make_config(GetParam(), phase, ShardMode::kSectors, axis));
      SCOPED_TRACE(GetParam().name + " sectors=" + std::to_string(axis) +
                   (phase == BroadphaseMode::kGrid ? " grid" : " brute"));
      EXPECT_EQ(rs.last_task1.sectors, axis * axis)
          << "sharded Task 1 path did not run";
      EXPECT_EQ(rs.last_task23.sectors, axis * axis)
          << "sharded Task 23 path did not run";
      EXPECT_EQ(rb.last_task1.outcome(), rs.last_task1.outcome());
      EXPECT_EQ(rb.last_task1.passes, rs.last_task1.passes);
      EXPECT_EQ(rb.last_task23.outcome(), rs.last_task23.outcome());
      ASSERT_EQ(rb.periods.size(), rs.periods.size());
      for (std::size_t i = 0; i < rb.periods.size(); ++i) {
        EXPECT_EQ(rb.periods[i].wrapped, rs.periods[i].wrapped)
            << "re-entry wraps diverged in period " << i;
      }
      EXPECT_TRUE(baseline.state().same_flight_state(sharded.state()))
          << "sector sharding changed the flight state";
    }
  }
}

TEST_P(SectorEquivalenceTest, MimdPathMatchesUnsharded) {
  for (const BroadphaseMode phase :
       {BroadphaseMode::kBruteForce, BroadphaseMode::kGrid}) {
    MimdBackend baseline;
    const PipelineResult rb = run_pipeline(
        baseline, make_config(GetParam(), phase, ShardMode::kNone, 4));

    for (const int axis : kSectorCounts) {
      MimdBackend sharded;
      const PipelineResult rs = run_pipeline(
          sharded, make_config(GetParam(), phase, ShardMode::kSectors, axis));
      SCOPED_TRACE(GetParam().name + " sectors=" + std::to_string(axis) +
                   (phase == BroadphaseMode::kGrid ? " grid" : " brute"));
      EXPECT_EQ(rb.last_task1.outcome(), rs.last_task1.outcome());
      EXPECT_EQ(rb.last_task23.outcome(), rs.last_task23.outcome());
      EXPECT_TRUE(baseline.state().same_flight_state(sharded.state()))
          << "sector sharding diverged on the MIMD path";
    }
  }
}

TEST_P(SectorEquivalenceTest, ShardedMimdMatchesShardedReference) {
  // The two host paths stay equivalent to each other under sharding too:
  // same partition, different executors (serial loop vs thread pool).
  ReferenceBackend ref;
  MimdBackend xeon;
  const PipelineResult rr = run_pipeline(
      ref, make_config(GetParam(), BroadphaseMode::kGrid,
                       ShardMode::kSectors, 4));
  const PipelineResult rx = run_pipeline(
      xeon, make_config(GetParam(), BroadphaseMode::kGrid,
                        ShardMode::kSectors, 4));
  EXPECT_EQ(rr.last_task1.outcome(), rx.last_task1.outcome());
  EXPECT_EQ(rr.last_task23.outcome(), rx.last_task23.outcome());
  EXPECT_TRUE(ref.state().same_flight_state(xeon.state()));
}

std::string scenario_test_name(
    const ::testing::TestParamInfo<Scenario>& info) {
  std::string name = info.param.name;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SectorEquivalenceTest,
                         ::testing::ValuesIn(all_scenarios()),
                         scenario_test_name);

TEST(SectorEquivalence, RetryPassesRebuildThePartitionIdentically) {
  // dulles-1972 leaves radars unmatched after pass 1, so the sharded
  // Task 1 rebuilds the partition with the doubled halo reach — the
  // multi-pass path must stay outcome-identical too.
  ReferenceBackend base, shard;
  const PipelineResult rb = run_pipeline(
      base, make_config(dulles_1972(), BroadphaseMode::kBruteForce,
                        ShardMode::kNone, 4));
  const PipelineResult rs = run_pipeline(
      shard, make_config(dulles_1972(), BroadphaseMode::kBruteForce,
                         ShardMode::kSectors, 4));
  EXPECT_GT(rb.last_task1.passes, 1) << "scenario no longer retries; the "
                                        "multi-pass sharded path is untested";
  EXPECT_EQ(rb.last_task1.passes, rs.last_task1.passes);
  EXPECT_EQ(rb.last_task1.outcome(), rs.last_task1.outcome());
  EXPECT_TRUE(base.state().same_flight_state(shard.state()));
}

TEST(SectorEquivalence, BoundaryClusterAtSectorSeamsStaysIdentical) {
  // A worst case for halos: a tight cluster parked on the field center,
  // which is the seam of every even sector split, flying hard at the
  // corner so re-entry teleports aircraft across the partition between
  // periods. Any halo omission loses a conflict pair here.
  airfield::FlightDb db = airfield::make_airfield(200, 7);
  for (std::size_t k = 0; k < 8; ++k) {
    db.x[k] = (k % 2 == 0) ? -0.2 : 0.2;  // straddle the 2x2/4x4 midline
    db.y[k] = (k % 4 < 2) ? -0.2 : 0.2;
    db.dx[k] = 0.09;
    db.dy[k] = 0.09;
    db.alt[k] = 10000.0 + 10.0 * static_cast<double>(k);
  }
  for (std::size_t k = 8; k < 16; ++k) {
    db.x[k] = 127.5;  // corner cluster: guarantees wraps in one cycle
    db.y[k] = 127.5;
    db.dx[k] = 0.09;
    db.dy[k] = 0.09;
    db.alt[k] = 12000.0 + 10.0 * static_cast<double>(k);
  }

  Scenario s = paper_airfield();
  PipelineConfig base_cfg = make_pipeline_config(s);
  base_cfg.aircraft = db.size();
  base_cfg.preloaded = true;
  s.policy.shard = ShardMode::kSectors;
  s.policy.sectors_per_axis = 4;
  PipelineConfig shard_cfg = make_pipeline_config(s);
  shard_cfg.aircraft = db.size();
  shard_cfg.preloaded = true;

  ReferenceBackend base, shard;
  base.load(db);
  shard.load(db);
  const PipelineResult rb = run_pipeline(base, base_cfg);
  const PipelineResult rs = run_pipeline(shard, shard_cfg);

  std::size_t wraps = 0;
  for (const PeriodLog& log : rb.periods) wraps += log.wrapped;
  EXPECT_GT(wraps, 0u) << "no aircraft wrapped; the re-entry case is dead";
  EXPECT_GT(rb.last_task23.conflicts, 0u)
      << "cluster produced no conflicts; the seam case is dead";
  EXPECT_EQ(rb.last_task1.outcome(), rs.last_task1.outcome());
  EXPECT_EQ(rb.last_task23.outcome(), rs.last_task23.outcome());
  EXPECT_TRUE(base.state().same_flight_state(shard.state()));
}

TEST(SectorEquivalence, ScenarioShardKnobsReachBothParamBundles) {
  Scenario s = paper_airfield();
  s.policy.shard = ShardMode::kSectors;
  s.policy.sectors_per_axis = 8;
  const PipelineConfig cfg = make_pipeline_config(s);
  EXPECT_EQ(cfg.task1.shard, ShardMode::kSectors);
  EXPECT_EQ(cfg.task1.sectors_per_axis, 8);
  EXPECT_EQ(cfg.task23.shard, ShardMode::kSectors);
  EXPECT_EQ(cfg.task23.sectors_per_axis, 8);
  const extended::FullSystemConfig full = make_full_config(s);
  EXPECT_EQ(full.task1.shard, ShardMode::kSectors);
  EXPECT_EQ(full.task1.sectors_per_axis, 8);
  EXPECT_EQ(full.task23.shard, ShardMode::kSectors);
  EXPECT_EQ(full.task23.sectors_per_axis, 8);
}

TEST(SectorEquivalence, ScenarioRegistryRoundTrips) {
  const auto names = scenario_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    Scenario s;
    ASSERT_TRUE(scenario_by_name(name, s)) << name;
    EXPECT_EQ(s.name, name);
  }
  Scenario s;
  EXPECT_FALSE(scenario_by_name("no-such-scenario", s));
  EXPECT_TRUE(scenario_by_name("dense-en-route", s));
  EXPECT_EQ(s.default_aircraft, dense_en_route().default_aircraft);
}

}  // namespace
}  // namespace atm::tasks

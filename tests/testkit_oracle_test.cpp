// Differential oracle (src/testkit/oracle.hpp): clean forged cases pass
// every probe, outcome() compares exactly the outcome counters, and the
// comparison machinery actually catches a buggy backend — the planted
// fleet off-by-one shim must light up, or the whole differential harness
// is vacuous.
#include <gtest/gtest.h>

#include <sstream>

#include "src/atm/pipeline.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/testkit/oracle.hpp"
#include "src/testkit/planted.hpp"

namespace atm::testkit {
namespace {

/// Baseline config of a forged case, deterministic for the host paths
/// (governor off, no stolen time) — mirrors the oracle's own leg_config.
tasks::PipelineConfig deterministic_config(const ForgedCase& c) {
  tasks::PipelineConfig cfg = pipeline_config(c);
  cfg.governor = rt::GovernorConfig{};
  cfg.faults.stolen_time_probability = 0.0;
  cfg.faults.stolen_time_ms = 0.0;
  return cfg;
}

TEST(OracleTest, CleanSeedsPassEveryProbe) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const OracleReport report = check_case(forge_case(seed));
    EXPECT_TRUE(report.ok())
        << "seed " << seed << " diverged:\n"
        << report.to_string();
    // Baseline + 23 matrix legs + 3 platforms + permutation pair +
    // broadphase soundness + 2 full-system runs.
    EXPECT_GE(report.runs, 30) << "seed " << seed;
  }
}

TEST(OracleTest, ProbesCanBeDisabledIndividually) {
  OracleOptions options;
  options.host_matrix = false;
  options.platform_backends = false;
  options.metamorphic = false;
  options.full_system = false;
  const OracleReport report = check_case(forge_case(1), options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs, 1);  // baseline only
}

TEST(OracleTest, OutcomeComparesOutcomeFieldsOnly) {
  // Work differs by backend and strategy; outcome() must not see it.
  tasks::Task1Stats t1;
  t1.matched = 7;
  t1.passes = 2;
  tasks::Task1Stats t1_work = t1;
  t1_work.box_tests = 123;
  t1_work.sectors = 4;
  t1_work.halo_candidates = 9;
  t1_work.kernel = 1;
  t1_work.lanes_masked = 3;
  EXPECT_EQ(t1_work.outcome(), t1.outcome());
  EXPECT_NE(t1_work, t1);
  tasks::Task1Stats t1_outcome = t1;
  t1_outcome.passes = 3;
  EXPECT_NE(t1_outcome.outcome(), t1.outcome());

  tasks::Task23Stats t23;
  t23.conflicts = 5;
  t23.critical = 2;
  tasks::Task23Stats t23_work = t23;
  t23_work.pair_tests = 999;
  t23_work.pair_candidates = 888;
  t23_work.rescans = 7;
  t23_work.sectors = 16;
  t23_work.halo_candidates = 4;
  t23_work.kernel = 0;
  t23_work.lanes_masked = 2;
  EXPECT_EQ(t23_work.outcome(), t23.outcome());
  EXPECT_NE(t23_work, t23);
  tasks::Task23Stats t23_outcome = t23;
  t23_outcome.unresolved = 1;
  EXPECT_NE(t23_outcome.outcome(), t23.outcome());

  tasks::MultiRadarStats multi;
  multi.returns = 12;
  tasks::MultiRadarStats multi_work = multi;
  multi_work.box_tests = 40;
  EXPECT_EQ(multi_work.outcome(), multi.outcome());
  EXPECT_NE(multi_work, multi);
  tasks::MultiRadarStats multi_outcome = multi;
  multi_outcome.redundant_returns = 1;
  EXPECT_NE(multi_outcome.outcome(), multi.outcome());

  // The printed outcome names every field, so a divergence report does.
  std::ostringstream out;
  out << t1.outcome();
  EXPECT_EQ(out.str(),
            "radars=0 matched=7 discarded_radars=0 unmatched_radars=0 "
            "ambiguous_aircraft=0 updated_aircraft=0 passes=2");
}

TEST(OracleTest, CompareRunsAcceptsARunAgainstItself) {
  const ForgedCase c = forge_case(2);
  tasks::ReferenceBackend ref;
  ref.load(c.db);
  const tasks::PipelineResult result =
      tasks::run_pipeline(ref, deterministic_config(c));
  OracleReport report;
  EXPECT_TRUE(compare_runs("self", result, ref.state(), result, ref.state(),
                           report));
  EXPECT_TRUE(report.ok());
}

TEST(OracleTest, CompareRunsFlagsTamperedOutcomes) {
  const ForgedCase c = forge_case(2);
  tasks::ReferenceBackend ref;
  ref.load(c.db);
  const tasks::PipelineResult want =
      tasks::run_pipeline(ref, deterministic_config(c));
  const airfield::FlightDb state = ref.state();

  tasks::PipelineResult tampered = want;
  tampered.last_task23.conflicts += 1;
  OracleReport report;
  EXPECT_FALSE(
      compare_runs("tampered", tampered, state, want, state, report));
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].where, "tampered");
}

TEST(OracleTest, PlantedFleetOffByOneIsDetected) {
  // Seed 1 is a pinned divergent seed for the planted shim (the shrink
  // self-test minimizes this exact failure). The full fleet's last
  // record carries a conflict, so dropping it from the scan changes the
  // conflict census.
  const ForgedCase c = forge_case(1);
  const tasks::PipelineConfig cfg = deterministic_config(c);

  tasks::ReferenceBackend ref;
  PlantedBugBackend buggy;
  ref.load(c.db);
  buggy.load(c.db);
  const tasks::PipelineResult want = tasks::run_pipeline(ref, cfg);
  const tasks::PipelineResult got = tasks::run_pipeline(buggy, cfg);

  OracleReport report;
  EXPECT_FALSE(compare_runs("planted", got, buggy.state(), want, ref.state(),
                            report));
  ASSERT_FALSE(report.divergences.empty());
  EXPECT_EQ(report.divergences[0].where, "planted");
  EXPECT_FALSE(report.to_string().empty());
}

TEST(OracleTest, PlantedBugAgreesOnConflictFreeFleets) {
  // Two distant level-separated cruisers: no conflicts anywhere, so the
  // skipped last record changes nothing — the planted bug must be
  // invisible, otherwise the shrinker could "minimize" to trivial cases.
  ForgedCase c = forge_case(1);
  c.overrides.keep = {0, 1};
  airfield::FlightDb db(2);
  db.x = {-100.0, 100.0};
  db.y = {-100.0, 100.0};
  db.dx = {0.01, -0.01};
  db.dy = {0.0, 0.0};
  db.alt = {5000.0, 25000.0};
  c.db = db;
  c.family.assign(2, 0);
  c.scenario.default_aircraft = 2;

  const tasks::PipelineConfig cfg = deterministic_config(c);
  tasks::ReferenceBackend ref;
  PlantedBugBackend buggy;
  ref.load(c.db);
  buggy.load(c.db);
  const tasks::PipelineResult want = tasks::run_pipeline(ref, cfg);
  const tasks::PipelineResult got = tasks::run_pipeline(buggy, cfg);

  OracleReport report;
  EXPECT_TRUE(compare_runs("planted", got, buggy.state(), want, ref.state(),
                           report))
      << report.to_string();
}

}  // namespace
}  // namespace atm::testkit
